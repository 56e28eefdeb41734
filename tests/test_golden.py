"""Frozen CLI outputs over a fixed corpus.

Every `build` recipe that writes a structure, then `check` and `states` on
what was built and on a cyclic set with no states, in text and json, plus
`check magma` (the S4 commuting magma, a weakly associative partial group to
arity 3, a magma with inverses that is not one, and a plain magma), failing sset and cyclic
batteries (tau corrupted at level 2 and at the top level 3), the two
narrowed cyclic suites, passing cyclic batteries on effect nerves at K=5 and
on bool3 read from a file, the standard 2-simplex, and `check effect-algebra`
passing and failing.  The largest build, the Z4 nerve at K=7, writes tables
across several slices.  Each run is recorded as its exit code and the
SHA-256 of its stdout bytes followed by the bytes of its --out file.  Paths
are relative to a fresh working directory, so report subjects do not depend
on where the suite runs.  A refactor that keeps reports byte-identical must
pass this test without touching GOLDEN.  A new CLI case is an entry here
or a case in test_cli.py, not a line of CI shell.

`quantum-demo` (text and json, two seeds) and `build key-example-witness`
are pinned apart from the digests, in QUANTUM_GOLDEN and WITNESS_GOLDEN:
their floats to QUANTUM_TOL, everything else exactly.  The floats the demo
prints for its sampled checks are rounding residuals, near zero for any
sample, so SAMPLE_GOLDEN pins the samples themselves: one weighted sum of
the validated 2-simplices per sampled check, to SAMPLE_TOL.
"""

import contextlib
import copy
import hashlib
import io
import json
import os

import numpy as np
import pytest

from simpeff import cli, palg, sset
from simpeff import cyclic as cyc
from simpeff import nerve as nv
from simpeff import quantum as q

from conftest import group_twist
from palg_oracles import chain_magma
from sset_oracles import hollow_simplex, point, two_triangles_shared_spine

# S3 (sorted permutations, identity first) acting on {0, 1, 2} from the right
S3_ACTION = {"z_size": 3, "table": [[0, 1, 2], [0, 2, 1], [1, 0, 2],
                                    [2, 0, 1], [1, 2, 0], [2, 1, 0]]}


def _inputs():
    q8, d4 = nv.quaternion_group(), nv.dihedral_group(4)
    z2, z4 = nv.cyclic_group(2), nv.cyclic_group(4)
    l2 = palg.interval_effect_algebra(2)
    l2_k3 = cyc.cyclic_from_edges(nv.nerve(l2.magma, 3), l2.orthocomplement).to_json_dict()
    bad_tau, bad_tau3 = copy.deepcopy(l2_k3), copy.deepcopy(l2_k3)
    for body, n in ((bad_tau, "2"), (bad_tau3, "3")):
        tau = body["tau"][n]
        tau[0], tau[1] = tau[1], tau[0]
    l2_nerve = cyc.cyclic_from_edges(nv.nerve(l2.magma, 4), l2.orthocomplement)
    # to_json_dict hands out the nerve's own tables, so each variant edits a copy
    corrupt = copy.deepcopy(l2_nerve.to_json_dict())
    faces = corrupt["faces"]["2,1"]
    faces[-1] = (faces[-1] + 1) % corrupt["counts"][1]
    clash = copy.deepcopy(l2_nerve.to_json_dict())
    for key in ("2,0", "2,2"):
        clash["faces"][key][1] = clash["faces"][key][2]
    return {
        "q8.json": q8.to_json_dict(),
        "d4.json": d4.to_json_dict(),
        "z4.json": z4.to_json_dict(),
        "s3.json": nv.symmetric_group(3).to_json_dict(),
        "s4.json": nv.symmetric_group(4).to_json_dict(),
        "s3-on-3.json": S3_ACTION,
        "bool2.json": palg.boolean_effect_algebra(2).to_json_dict(),
        "q8-magma.json": nv.commuting_magma(q8).to_json_dict(),
        "d4-t2-magma.json": nv.commuting_magma(d4, 2).to_json_dict(),
        "chain-magma.json": chain_magma(2).to_json_dict(),
        # a cyclic set with an empty state polytope
        "pt-cyclic.json": cyc.CyclicSSet(point(3), {n: [0] for n in (1, 2, 3)}).to_json_dict(),
        # fails inverseless and (Z)
        "z2-cyclic.json": group_twist(z2, 1, nv.comm_nerve(z2, None, 4)).to_json_dict(),
        # fails 2-Segal with a triangulation witness, and weak 2-Segal
        "ly-z4-cyclic.json": group_twist(z4, 0, nv.action_partial_group(
            z4, 4, nv.translation_action(z4), [0, 1, 2], 4)).to_json_dict(),
        # fails the cyclic relations and ortho-1
        "bad-tau-cyclic.json": bad_tau,
        # tau corrupted at the top level 3 only: fails tau^4 = id there
        "bad-tau3-cyclic.json": bad_tau3,
        # the L2 effect nerve with one level-2 face moved to another edge:
        # fails the simplicial identities
        "corrupt-l2.json": corrupt,
        # the L2 effect nerve with 2-simplex 1 given the spine of 2-simplex 2:
        # fails the simplicial identities and spiny
        "spine-clash-l2.json": clash,
        # fails spiny with a collision witness
        "split-spine.json": sset.cosk2_extend(two_triangles_shared_spine(2), 3).to_json_dict(),
        # fails 2-coskeletality with a "multiple" witness
        "twin-tetra.json": hollow_simplex(3, 3, 2).to_json_dict(),
        # fail 2-coskeletality at level 4, with an "unfilled" and a "multiple"
        # witness; both fail 2-Segal and weak 2-Segal at level 4 too
        "hollow-4.json": hollow_simplex(4, 4).to_json_dict(),
        "twin-4.json": hollow_simplex(4, 4, 2).to_json_dict(),
        "l2-perp-not-involution.json": dict(l2.to_json_dict(), orthocomplement=[2, 0, 1]),
        # passes every effect-algebra axiom
        "l2-ea.json": l2.to_json_dict(),
        # bool3 read from a file, as the benchmark builds its nerve
        "bool3.json": palg.boolean_effect_algebra(3).to_json_dict(),
        # a weak partial monoid, not inverseless, weakly associative to arity 3
        "s4-magma.json": nv.commuting_magma(nv.symmetric_group(4)).to_json_dict(),
        # two-sided inverses 1 and 2, but the doubled pair (1, 1, 2, 2) is not
        # fully associable: 2 * 2 is undefined
        "wpm3.json": {"size": 3, "unit": 0, "products": [
            [0, 0, 0], [0, 1, 1], [0, 2, 2], [1, 0, 1], [1, 1, 2], [1, 2, 0], [2, 0, 2], [2, 1, 0]]},
        # a plain magma: (1 * 1) * 1 = 1 but 1 * (1 * 1) = 0, so classify
        # stops at the witness (1, 1, 1) and no inverse condition is asked
        "magma3.json": {"size": 3, "unit": 0, "products": [
            [0, 0, 0], [0, 1, 1], [0, 2, 2], [1, 0, 1], [1, 1, 2], [1, 2, 0], [2, 0, 2], [2, 1, 1]]},
        # the standard 2-simplex at K=4: three vertices, so not reduced, yet 2-Segal
        "d2.json": sset.standard_simplex(2, 4).to_json_dict(),
    }

Y_S4 = ",".join(map(str, range(12)))


BUILDS = {
    "cn-q8.json": ("comm-nerve", "--group", "q8.json", "--levels", "4"),
    "cn-d4-t2.json": ("comm-nerve", "--group", "d4.json", "--torsion", "2", "--levels", "4"),
    "cn-q8-t4.json": ("comm-nerve", "--group", "q8.json", "--torsion", "4", "--levels", "3"),
    "ly-z4.json": ("action-pg", "--group", "z4.json", "--y", "0,1,2", "--levels", "4"),
    "ly-s3.json": ("action-pg", "--group", "s3.json", "--action", "s3-on-3.json",
                   "--y", "0,1", "--levels", "4"),
    "cn-z4.json": ("comm-nerve", "--group", "z4.json", "--levels", "4"),
    "en-l2.json": ("effect-nerve", "--family", "l2", "--levels", "4"),
    "en-bool2.json": ("effect-nerve", "--effect-algebra", "bool2.json", "--levels", "3"),
    "en-l4.json": ("effect-nerve", "--family", "l4", "--levels", "3"),
    "s1.json": ("s1", "--levels", "3"),
    # the largest builds: S4 at K=5, and L_Y(S4) at K=4 for the permutations
    # p with p(0) in {0, 1}
    "cn-s4.json": ("comm-nerve", "--group", "s4.json", "--levels", "5"),
    "ly-s4.json": ("action-pg", "--group", "s4.json", "--y", Y_S4, "--levels", "4"),
    # past the other goldens' K=4: tau from tau_1 and the spines, for a chain
    # and for bool2, which is not one; and bool3 from a file
    "en-l4-k5.json": ("effect-nerve", "--family", "l4", "--levels", "5"),
    "en-bool2-k5.json": ("effect-nerve", "--family", "bool2", "--levels", "5"),
    "en-bool3.json": ("effect-nerve", "--effect-algebra", "bool3.json", "--levels", "4"),
    # level-7 tables of 16384 entries span several written slices, and the
    # top degeneracies run past the decimal table
    "cn-z4-k7.json": ("comm-nerve", "--group", "z4.json", "--levels", "7"),
}
# cn-q8, cn-d4-t2 and ly-s3 are checked at levels 3 and 4; cn-z4 passes
# 2-Segal at level 4; cn-s4 is weakly 2-Segal at level 5; ly-s4, the largest
# nerve built, fails 2-Segal and passes weak 2-Segal at level 4; hollow-4 and
# twin-4 fail 2-coskeletality at level 4; d2 is 2-Segal but not reduced
SSETS = (("cn-q8.json", "--levels", "3"), ("cn-d4-t2.json", "--levels", "3"),
         ("cn-q8-t4.json",), ("ly-z4.json",), ("ly-s3.json", "--levels", "3"), ("s1.json",),
         ("cn-q8.json", "--levels", "4"), ("cn-d4-t2.json", "--levels", "4"),
         ("ly-s3.json", "--levels", "4"), ("cn-z4.json",), ("twin-tetra.json",),
         ("cn-s4.json", "--levels", "5"), ("ly-s4.json",), ("hollow-4.json",), ("twin-4.json",),
         ("d2.json",))
CYCLICS = ("en-l2.json", "en-bool2.json", "en-l4.json", "pt-cyclic.json")
MAGMAS = ("q8-magma.json", "d4-t2-magma.json", "chain-magma.json", "s4-magma.json", "wpm3.json",
          "magma3.json")
# failing batteries, the two narrowed cyclic suites (also below level 3 and
# on sets that break the simplicial identities, one of them not spiny either),
# the effect-algebra axioms, and passing cyclic batteries at K=5 and on bool3
CHECKS = (("cyclic", "z2-cyclic.json"), ("cyclic", "ly-z4-cyclic.json"),
          ("cyclic", "bad-tau-cyclic.json"),
          ("cyclic", "z2-cyclic.json", "--simplicial-effect"),
          ("cyclic", "ly-z4-cyclic.json", "--effect-algebroid"),
          ("cyclic", "ly-z4-cyclic.json", "--simplicial-effect"),
          ("cyclic", "en-l2.json", "--levels", "2"),
          ("cyclic", "en-l2.json", "--levels", "2", "--simplicial-effect"),
          ("cyclic", "en-l2.json", "--levels", "2", "--effect-algebroid"),
          ("cyclic", "corrupt-l2.json"),
          ("cyclic", "corrupt-l2.json", "--levels", "2"),
          ("cyclic", "corrupt-l2.json", "--levels", "2", "--simplicial-effect"),
          ("cyclic", "corrupt-l2.json", "--levels", "2", "--effect-algebroid"),
          ("sset", "split-spine.json"),
          ("sset", "corrupt-l2.json"),
          ("cyclic", "corrupt-l2.json", "--simplicial-effect"),
          ("cyclic", "spine-clash-l2.json"),
          ("cyclic", "spine-clash-l2.json", "--simplicial-effect"),
          ("effect-algebra", "bool2.json"), ("effect-algebra", "l2-perp-not-involution.json"),
          ("cyclic", "bad-tau3-cyclic.json"), ("effect-algebra", "l2-ea.json"),
          ("cyclic", "en-l4-k5.json", "--levels", "5"),
          ("cyclic", "en-bool2-k5.json", "--levels", "5"), ("cyclic", "en-bool3.json"))


def _commands():
    for out, argv in BUILDS.items():
        yield ("build",) + argv + ("--out", out), out
    yield ("build", "s1", "--levels", "4"), None
    for path, *levels in SSETS:
        yield ("check", "sset", "--in", path, *levels), None
    for path in CYCLICS:
        yield ("check", "cyclic", "--in", path, "--states", "--hc1"), None
        yield ("states", "--cyclic", path, "--hc1"), None
    for path in MAGMAS:
        yield ("check", "magma", "--in", path), None
    for kind, path, *flags in CHECKS:
        yield ("check", kind, "--in", path, *flags), None


def run_corpus(workdir, keep=lambda argv: True):
    """label -> (exit code, sha256 of stdout + --out bytes), run in workdir,
    of the commands keep accepts."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, body in _inputs().items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
        record = {}
        for argv, out in filter(lambda cmd: keep(cmd[0]), _commands()):
            variants = [argv] if argv[0] == "build" else [argv, argv + ("--json",)]
            for av in variants:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(av))
                data = buf.getvalue().encode("utf-8")
                if out is not None:
                    with open(out, "rb") as fh:
                        data += fh.read()
                record[" ".join(av)] = (code, hashlib.sha256(data).hexdigest())
        return record
    finally:
        os.chdir(here)


GOLDEN = {
    'build comm-nerve --group q8.json --levels 4 --out cn-q8.json':
        (0, "b39eb569afd37aa5cf3b08b4d0599149ff0f40ccb428b1856c411062e3111fcf"),
    'build comm-nerve --group d4.json --torsion 2 --levels 4 --out cn-d4-t2.json':
        (0, "9f5f5610bc1a903b82416ee53900eae0412e3d4288afe2a1eed1e8da8df6f59c"),
    'build comm-nerve --group q8.json --torsion 4 --levels 3 --out cn-q8-t4.json':
        (0, "bd75a4cdcccfb6e4c74f837678745d9f76f091571d34cb9ef7880afa7018092b"),
    'build action-pg --group z4.json --y 0,1,2 --levels 4 --out ly-z4.json':
        (0, "ba2e839628355b46e3a946462ae8778b50bf3eae87db8e19f6ea240bde129d90"),
    'build action-pg --group s3.json --action s3-on-3.json --y 0,1 --levels 4 --out ly-s3.json':
        (0, "b3c84b26b4772e9112ea4172ab964914a24f9079d78338dc50819be8bedd59d4"),
    'build comm-nerve --group z4.json --levels 4 --out cn-z4.json':
        (0, "a199a581214817887b36074ecff231764d3928cfa906fb3e709bde8941b9f3e6"),
    'build effect-nerve --family l2 --levels 4 --out en-l2.json':
        (0, "c458240056f41a56c7ad2b72606c43b1dad388e02b5536f77c4a999b0d15d99a"),
    'build effect-nerve --effect-algebra bool2.json --levels 3 --out en-bool2.json':
        (0, "5ea220d8fc1b557777f3b60f40dff4e4c61debfdfb4716d30ce774e20a16db15"),
    'build effect-nerve --family l4 --levels 3 --out en-l4.json':
        (0, "d25fff292dee87ff9fe8a248a27d392af0280d803d370cc3cea954de2847f3b8"),
    'build s1 --levels 3 --out s1.json':
        (0, "49c8d0ef74e6f07e9ab142b829a63ce8d4ad3196507f93a98d006995e7457fb7"),
    'build comm-nerve --group s4.json --levels 5 --out cn-s4.json':
        (0, "5e63bfb5e42b58d01393063ac324ec53f2a027a9f4da034d08e78da9227e66bb"),
    'build action-pg --group s4.json --y 0,1,2,3,4,5,6,7,8,9,10,11 --levels 4 --out ly-s4.json':
        (0, "bfcc063412da165a3e0baafa1c4d117c8fd1f34dd1907e5ba1f49a7902ddf5b1"),
    'build effect-nerve --family l4 --levels 5 --out en-l4-k5.json':
        (0, "c33ce493772ebe4a00ee8461a0773dcbe165126ce563fbef54e0ba3bc65087fc"),
    'build effect-nerve --family bool2 --levels 5 --out en-bool2-k5.json':
        (0, "f37d871cbc7e29d9ef6652d59dd45d72c5f6f02ae5c5fe196232af4c0c984b57"),
    'build effect-nerve --effect-algebra bool3.json --levels 4 --out en-bool3.json':
        (0, "40631b02e2bfc0005a52227396ebb28a9b04fdca73cb208cf55026b66af54b81"),
    'build comm-nerve --group z4.json --levels 7 --out cn-z4-k7.json':
        (0, "61d942699ecb142e4661f2122679bd2d1866454876bd35873fd929a59f9c7294"),
    'build s1 --levels 4':
        (0, "651e4f1624471e6e5c832d81aee0284c990b9bb897a47abcc9bc10e74d665eac"),
    'check sset --in cn-q8.json --levels 3':
        (1, "c386b94c5d32631141a05912aafae376a53ffcc229412564665c849809927be4"),
    'check sset --in cn-q8.json --levels 3 --json':
        (1, "0273807de531ce2e898524f9f214adcf7d752e1c83e322e84bf885b239f38295"),
    'check sset --in cn-d4-t2.json --levels 3':
        (1, "d285711a824d7b7b6693771ed8503a33129a5acd6897b8c9ab5ef66b6a4fe803"),
    'check sset --in cn-d4-t2.json --levels 3 --json':
        (1, "2dc4354e09dfed012e522c6bc23e89810167cf760c821e246914e613c7b4e159"),
    'check sset --in cn-q8-t4.json':
        (1, "ba27bcfdb3aefc9f91adceb921b17661ab34e20647ebcc314f253f2ffe6e350e"),
    'check sset --in cn-q8-t4.json --json':
        (1, "6be40002a897054b1f07ad0cfd5d531102df789e434426559ee4dd97a3630bc7"),
    'check sset --in ly-z4.json':
        (1, "74d47aec84ded1e3db4c5912584211d089758dc73de21dfc1654830f20040635"),
    'check sset --in ly-z4.json --json':
        (1, "723c82080fe39582957d4bf37f69665b84a68f744f27fb7ea96656c5ee04b17c"),
    'check sset --in ly-s3.json --levels 3':
        (1, "c0437c698e43fd814d4a3c27db8f555f7838f7921e1f360d506d8277e8c2b90b"),
    'check sset --in ly-s3.json --levels 3 --json':
        (1, "8ccf39f7a693b315553b895c75a9c6a157bd393d7aad29c56447ab38d1f0d64d"),
    'check sset --in s1.json':
        (0, "9a4e3e394fade8ebfc605eff6f5d2cac883bf330b12011fe291dc119bc017251"),
    'check sset --in s1.json --json':
        (0, "43d9efb9ff183cca3033b290d9e9f0f755b8101efba3c4624545a0a2f963f46d"),
    'check sset --in cn-q8.json --levels 4':
        (1, "d38487e9ff16d9dc9a1877188bffeebdce8dd870b3ce9a8c856305adf2bff18f"),
    'check sset --in cn-q8.json --levels 4 --json':
        (1, "39f54ba4ad436bd8c07f59b1738ddac64edaa3b642709297fe87128a9239eb67"),
    'check sset --in cn-d4-t2.json --levels 4':
        (1, "b41d05c7e86b78593120d0d64c12a518c377eddde5e1e5dbd460d0647d403c67"),
    'check sset --in cn-d4-t2.json --levels 4 --json':
        (1, "1e655fe13290f69f66a9f485d2ae47ec0aa5ff74e476f81c6939f0f4bfcba135"),
    'check sset --in ly-s3.json --levels 4':
        (1, "ba8bf64751f8604ad0554afe91058f6fe1aad3ec4123df04816aa1e855efa19b"),
    'check sset --in ly-s3.json --levels 4 --json':
        (1, "71a536147c3e14ae1ea5bd25a862125dbd7edd7bc131b5f74c99d1df3b37e3d1"),
    'check sset --in cn-z4.json':
        (1, "e96cc5e98a1b6b3edce8f7f21e81dabe5fb8397f082709b6a169c9e5757c6340"),
    'check sset --in cn-z4.json --json':
        (1, "2814c67ba2318f3ca81098106f618042433a2a3e6d1e8819d4689154a7dca689"),
    'check sset --in twin-tetra.json':
        (1, "7898573a4aadecf1dfbf74807c0d8d0f7862f274e1fafc92194e486cc73d97d2"),
    'check sset --in twin-tetra.json --json':
        (1, "396854ea29cb75b42d3a82523a0cef4bef4118f686dfd3a0622f1cc365f4c0cb"),
    'check sset --in cn-s4.json --levels 5':
        (1, "b15aeda1f77f7883ba5fd0e456bc9073ca671369c063414bccfb3188aa574d39"),
    'check sset --in cn-s4.json --levels 5 --json':
        (1, "3116d39e9ca885f29eefb14d1739981fe36202688d1094696f25c8b9b7779447"),
    'check sset --in ly-s4.json':
        (1, "c1f56462ac74245ff65660bf3f9d327e2861b6d1c7d8e50f2cf380d86f318073"),
    'check sset --in ly-s4.json --json':
        (1, "3aff8ce5c7c9cecb043329bee2c5b890b88bb04eb800052351f84b32d9213d86"),
    'check sset --in hollow-4.json':
        (1, "b06be95a70beb6e60caf8c1c40933b54d4d88bd8f62c1b4e8f82825c03c62698"),
    'check sset --in hollow-4.json --json':
        (1, "69cb7a0fbdec6b98797451549726bb8e11d0b202c025bdbed9cc4656d2df3766"),
    'check sset --in twin-4.json':
        (1, "62760b1a54cd73dead14a2e9aa962ab2703b1614c737edafae5964e482f28cde"),
    'check sset --in twin-4.json --json':
        (1, "d9f099fbcd74f8d22b8dab3d293705dd59da6326a64a0d6aef5d11b5594e46fe"),
    'check sset --in d2.json':
        (1, "94216d9515f780ca605b1abb53ccf2b30e41d60d06c02e3126899388da97c15a"),
    'check sset --in d2.json --json':
        (1, "6eb69b38f16d7dd94e35986b2b7cac407cd309127335a496eecb0cda06735825"),
    'check cyclic --in en-l2.json --states --hc1':
        (0, "3117393af17d2461193a9d87e245fb74779f6206f8871355e9b52b611021ff4b"),
    'check cyclic --in en-l2.json --states --hc1 --json':
        (0, "4b9bff9c0f65ec2a808155c985dda976b450b147f4f60ec79b9185645c01abea"),
    'states --cyclic en-l2.json --hc1':
        (0, "5d124028eee7e69f63308a02ae815b76b8605cf2d557df68dc7e0048b6702381"),
    'states --cyclic en-l2.json --hc1 --json':
        (0, "c228992d018a916a8c962f9251921eae74b7b1ee15bd8d53b48e33ad0d1438c4"),
    'check cyclic --in en-bool2.json --states --hc1':
        (0, "dca9753a3bef4c9e2be80a4a9db8f27ed3b6ee8169ea1c41b34bcba842652fb9"),
    'check cyclic --in en-bool2.json --states --hc1 --json':
        (0, "533e5ba1d00d876dc6cfea4a75c2cca143a287739c6f41d3a7508dbb464b1ecd"),
    'states --cyclic en-bool2.json --hc1':
        (0, "983c802547bb4dda8aede13f5bf64c68437178737decec96b17ca9ebd5115428"),
    'states --cyclic en-bool2.json --hc1 --json':
        (0, "d807e8d5292633662f9b727d8856ea59b9d325c7335420fd47225eb7be0e6df4"),
    'check cyclic --in en-l4.json --states --hc1':
        (0, "f870e5fb336c734ad200f2cb04a020ea63b374522551b42b88511153ecc9ecec"),
    'check cyclic --in en-l4.json --states --hc1 --json':
        (0, "e71e8f0bc3646edd7f18f71bccf72b5daf689c1e5129ff356a7c6be1341d69c1"),
    'states --cyclic en-l4.json --hc1':
        (0, "4a4f0e3bbcf960c19b24d9ca64b17a523e0b70ac83b809106dfb7b686b51e5fb"),
    'states --cyclic en-l4.json --hc1 --json':
        (0, "a5fc48dfb194bd03815199b4d5114aa87eecc690a87712d8160e42e5cb19f9dd"),
    'check cyclic --in pt-cyclic.json --states --hc1':
        (0, "d1529a5aa327819c7c6923cbd628dc3709e158a76f057ae1311eb7a9d2d31c79"),
    'check cyclic --in pt-cyclic.json --states --hc1 --json':
        (0, "6b9504663cfd668e1e0677a7736a161b89347f10584ef301d886dbe6c98472f3"),
    'states --cyclic pt-cyclic.json --hc1':
        (0, "db87c37ccd58f1cee05c50517a80496af688a8c76482f2c6e60d258675a628a6"),
    'states --cyclic pt-cyclic.json --hc1 --json':
        (0, "bac2acdf0de2756b480654d43522b008fc8d1cfbae918d14e9f6eee0f347f946"),
    'check magma --in q8-magma.json':
        (1, "ba69eb5a7acbba0a9e0ba0c79943fda43722b2cd52b4998daa13bb911f7fc549"),
    'check magma --in q8-magma.json --json':
        (1, "750ffb9678b290a929b1c0300f02ee469ca4aec17049d06c8f5484650113661f"),
    'check magma --in d4-t2-magma.json':
        (1, "632541e8b877b89847db50deff920f6aa48b7762dfc598405d9666b7f5e38478"),
    'check magma --in d4-t2-magma.json --json':
        (1, "72bc431e247bf6a46d260cc174a7dfc556f089bc00ada35d0e56ab6b0f52cf01"),
    'check magma --in chain-magma.json':
        (1, "f8b84d45466900dd186fcc9ba02ec4e958b4ff058ff9e1015003d9931fdfc0f7"),
    'check magma --in chain-magma.json --json':
        (1, "9f24ac5f2cc48008e12157acd124d324d11e12efc0f5c3dac036aa4e58e13715"),
    'check magma --in s4-magma.json':
        (1, "d467c718928e9825a733b026fb085a1c7c93d568d5a392e9154bf28c924cb576"),
    'check magma --in s4-magma.json --json':
        (1, "fae87cab763f8e467259dfe85a248b54056282435840e47cf19fc449586bdb79"),
    'check magma --in wpm3.json':
        (1, "01d7bffe2401e90b028c62f5f4720bb42161f6882a9cbc34ca2df0a475421f67"),
    'check magma --in wpm3.json --json':
        (1, "82804ab30b276dd8c7a4a551c0990e83aeb5f1c4844e1620b817c85062b7646a"),
    'check magma --in magma3.json':
        (1, "bbea1e1489f1935ee245960ff51d19040b2480532862cce3c80744a6902360f9"),
    'check magma --in magma3.json --json':
        (1, "2576170b7ddffd13fa419768db5f47ef1557268176d485f55693bd7408db5b65"),
    'check cyclic --in z2-cyclic.json':
        (1, "41567f2792fbeb0a344412200d9669cdb4862835df2fbb67365fee9be6f6cdbb"),
    'check cyclic --in z2-cyclic.json --json':
        (1, "03cf95a365519b17fff8e8c066edcb1124209bb3b12a2075f387bd0c3977fbaf"),
    'check cyclic --in ly-z4-cyclic.json':
        (1, "623c5b3662db4d2b2a56285e749cb061e0b8b4028321f3a7085fc6e0a035acf6"),
    'check cyclic --in ly-z4-cyclic.json --json':
        (1, "4313c4c05fe23e15d192b2e39c0cd4166fea472df21c97e017b6d9ffae7e4467"),
    'check cyclic --in bad-tau-cyclic.json':
        (1, "ffc673eb1ddadabc2ea23f24b60faacf7c667625d9ceadb453c7e8c19119fc07"),
    'check cyclic --in bad-tau-cyclic.json --json':
        (1, "d9238541cf479c6db81561e6494d7898f84b24c82be9ae6b7466615c5231afa9"),
    'check cyclic --in z2-cyclic.json --simplicial-effect':
        (1, "c72e8120e20b47f26e962a6bdcb88c4f63b27efa910ae6d3a92319b3ef418f7e"),
    'check cyclic --in z2-cyclic.json --simplicial-effect --json':
        (1, "20b6368991518b7abddd2dd7ca756b8f48b2998784067a55693566bf0929acf0"),
    'check cyclic --in ly-z4-cyclic.json --effect-algebroid':
        (1, "7e1528287cd2c97c1cdf76491c50f842ad408ad568e70e5470d149322fdd65f2"),
    'check cyclic --in ly-z4-cyclic.json --effect-algebroid --json':
        (1, "8ed4657b40d7a79dddebddeb861dde78a7f242890016c7dbc6af2ff0e6477359"),
    'check cyclic --in ly-z4-cyclic.json --simplicial-effect':
        (1, "6238afd64547947e1c0f7ebd3e3542ed5d1cfff85050ec4abdb20b2d0d878882"),
    'check cyclic --in ly-z4-cyclic.json --simplicial-effect --json':
        (1, "7224707b112397117e97d25ef408fa99689d7c263c7079c5e3dc61189f92cf18"),
    'check cyclic --in en-l2.json --levels 2':
        (0, "7a3f7f9bfc32d81ea2b3ed9d5f68babf830172a060f7fff504539b0d6f09ce06"),
    'check cyclic --in en-l2.json --levels 2 --json':
        (0, "ec652f06b36d72d9f38afeab1109053a548a9b24c5171cd79d7bb8016782b586"),
    'check cyclic --in en-l2.json --levels 2 --simplicial-effect':
        (0, "40dfb1a464556f4e5a2d186d5c025e3c8adf501071fc8e39b6b4294ed44be5eb"),
    'check cyclic --in en-l2.json --levels 2 --simplicial-effect --json':
        (0, "1e74a0a4480e3c34710583bcc0dfbb8924bdb48f40939ac29614040156349db5"),
    'check cyclic --in en-l2.json --levels 2 --effect-algebroid':
        (0, "69a67c1838041bb463bffd7859d905aee06251c951723bc007f0a1a3edfdfb59"),
    'check cyclic --in en-l2.json --levels 2 --effect-algebroid --json':
        (0, "1bd58ceea75c2b2f2a002f2b57907ecb13ba311107aac873c341e2eeb67c44da"),
    'check cyclic --in corrupt-l2.json':
        (1, "e8260b32b89e6851be86937b8b8574b554c522cf20b127c247ddfe4973b7eb3d"),
    'check cyclic --in corrupt-l2.json --json':
        (1, "20c0cc94b31fd9a9752fa38dfeb33ac21c0dc480c8b4c50a58bab456250f4eb4"),
    'check cyclic --in corrupt-l2.json --levels 2':
        (1, "ee014762a4d752173aee9d6fef163ab56435bd8f154a4fe2e0a3ea18a9138d98"),
    'check cyclic --in corrupt-l2.json --levels 2 --json':
        (1, "c9a642bf7bc9cbf4aded53c74df21a1bb883e74b587ea77e5fc2ed41780ed510"),
    'check cyclic --in corrupt-l2.json --levels 2 --simplicial-effect':
        (1, "cb78c41ad2559bdaa20bd210f64a9792e7f98d2e11d23ddb66ee38f3f33aa326"),
    'check cyclic --in corrupt-l2.json --levels 2 --simplicial-effect --json':
        (1, "119435bc836c471ed7084fc05e220a9a4ca9f096d378dd0da8c03fd2385c60f7"),
    'check cyclic --in corrupt-l2.json --levels 2 --effect-algebroid':
        (1, "c8170424c96c4efb3c6263415c35262828eafdb8a4d0b66d497fc3f6656708d2"),
    'check cyclic --in corrupt-l2.json --levels 2 --effect-algebroid --json':
        (1, "9cf249c9abcfc60541936d522066838e071cffb38e8e4c7756bf95cef80fabdf"),
    'check sset --in split-spine.json':
        (1, "801a1ea15a7ceea0ca89daeacffb64ced685f601929bcda9ab51e7f36a995c13"),
    'check sset --in split-spine.json --json':
        (1, "88a529a2d5e01ae84a93558175df53733b83ac44a72bb49475cd474a3448e29f"),
    'check sset --in corrupt-l2.json':
        (1, "563ad59bc9bcc40505994a3a158e10ae3b844ddad964a9cb45b78950f4f8d15d"),
    'check sset --in corrupt-l2.json --json':
        (1, "733cbee5127ae9b81ac1825699bf80629130c8f42302b5fc60d151bbf4bc0211"),
    'check cyclic --in corrupt-l2.json --simplicial-effect':
        (1, "c30ec9d267fc250beacdc13ce6e7aa646749fe5175bc4f7c92274f2399b6dd71"),
    'check cyclic --in corrupt-l2.json --simplicial-effect --json':
        (1, "0fd4cc5c0fb5cc8391377355bdce92d29352df3334c0ec07e74bd7c8dcdf612a"),
    'check cyclic --in spine-clash-l2.json':
        (1, "8fa68bf94545dca080648e1b51eae10e7412d1b7a26e1bbf7e6b7277227387d0"),
    'check cyclic --in spine-clash-l2.json --json':
        (1, "7d098e35f20011668adeaf7f511db0d350872820886c877aecd57c34b59407f6"),
    'check cyclic --in spine-clash-l2.json --simplicial-effect':
        (1, "12b842b9982f1a1e048bcd3bfda6d97beb59ec2dbb37ac0efb0b74c6c6ab96c3"),
    'check cyclic --in spine-clash-l2.json --simplicial-effect --json':
        (1, "e67ff0ab7d016516f9f7d2f271c7010bf67210250d851b4ef9684fca57a31324"),
    'check effect-algebra --in bool2.json':
        (0, "dab368b7ba634e5947d3483a5797bad72f10359f58f81e939b9a507d76993fe7"),
    'check effect-algebra --in bool2.json --json':
        (0, "30e75cf34a465fec98f283807b0698a3f729399fedeb843c72e67b1b6a49790d"),
    'check effect-algebra --in l2-perp-not-involution.json':
        (1, "a865b94a6c3d6db1bec277e81a3777f8e27f81f5212a1beb3cc30eb83ae35db4"),
    'check effect-algebra --in l2-perp-not-involution.json --json':
        (1, "8cd6c2fb2b2cacd79fa69045be4a4bfcd396f946bb8887e83be24f07c011d13d"),
    'check cyclic --in bad-tau3-cyclic.json':
        (1, "88b8ee474f2c8ab2ef7c6b04e6fa6a49e7073d2d93f94bbce5f3a9884b231e87"),
    'check cyclic --in bad-tau3-cyclic.json --json':
        (1, "a67361ff53e8bf462284a514b0d8edf87084dbe207780c0c597b03eb08bc9a47"),
    'check effect-algebra --in l2-ea.json':
        (0, "1aaf28274451bab1e1d2bcc35d525f74c729bbd38414cad0206c40a0864233c7"),
    'check effect-algebra --in l2-ea.json --json':
        (0, "c3bd6054d16f3b4a5c5035cdfcbfab36c83173aed5da39647e044d79d1b1bb99"),
    'check cyclic --in en-l4-k5.json --levels 5':
        (0, "27eaf08c05013b6f8a9577ea778539859842cd5b9cbb763eec0a64d65aee3911"),
    'check cyclic --in en-l4-k5.json --levels 5 --json':
        (0, "e55bb517f4b931b1b15333bd778469c9d59983b8dfc02088c4ab59d20fbaaa79"),
    'check cyclic --in en-bool2-k5.json --levels 5':
        (0, "7a3e264c390af84b51790994a48d555fa0e68ed8ca82d25614b1343396b84494"),
    'check cyclic --in en-bool2-k5.json --levels 5 --json':
        (0, "39e5e0ee3822c78a9d7a6137cb312e3790504cd544dc3353639a7a6b6f6cd6a8"),
    'check cyclic --in en-bool3.json':
        (0, "47dc3d297a0a5f050bc48c543e09f546e9bae10447a68cdbea96a67fd3bee4a6"),
    'check cyclic --in en-bool3.json --json':
        (0, "538eb271566bce89daa5ba60dccae74f76fac6a87492ab2f9bd2eb025fe94e1d"),
}


def test_golden_corpus(tmp_path):
    assert run_corpus(tmp_path) == GOLDEN


def test_effect_nerve_builds_neither_build_nor_validate_a_datum(tmp_path, monkeypatch):
    """build effect-nerve reads the maximal nerve off the interval DP: with
    max_associativity_datum and validate_datum set to raise, every
    effect-nerve build still writes its golden bytes."""
    def refuse(*args):
        raise AssertionError("the maximal nerve built or validated a datum")

    monkeypatch.setattr(palg, "max_associativity_datum", refuse)
    monkeypatch.setattr(palg, "validate_datum", refuse)
    got = run_corpus(tmp_path, lambda argv: argv[:2] == ("build", "effect-nerve"))
    assert len(got) == 6
    assert got == {label: GOLDEN[label] for label in got}


# ---------------------------------------------------------------------------
# the numerical commands: quantum-demo and the key-example witness
#
# Their floats are rounding residuals and matrix entries, so they are pinned
# to QUANTUM_TOL rather than by digest: a different but equally valid order
# of floating-point operations may change a last bit.  Exit codes, strings,
# integers (trials, passed, pi01_rank) and booleans are pinned exactly.

QUANTUM_TOL = 1e-12
QUANTUM_DEMOS = tuple(("quantum-demo", "--trials", "40", "--seed", seed) + fmt
                      for seed in ("0", "1") for fmt in ((), ("--json",)))


def _token(word):
    for kind in (int, float):
        try:
            return kind(word)
        except ValueError:
            pass
    return word


def _witness_parsed(body):
    """The witness bundle with its matrices as label -> {(i, j): (re, im)}."""
    mats = {name: body[name] for name in ("A", "B", "C")}
    for name in ("Pi", "Psi"):
        mats.update({f"{name} {t}": m for t, m in body[name].items()})
    entries = {label: {(i, j): tuple(v) for i, row in enumerate(m) for j, v in enumerate(row)}
               for label, m in mats.items()}
    return {"dim": body["dim"], "checks": body["checks"], "entries": entries}


def _tokens(text):
    """Text output as lines of int, float and str tokens."""
    return [[_token(w) for w in line.split(" ")] for line in text.splitlines()]


def run_quantum(argv):
    """(exit code, stdout): text tokenized, json as read, the witness as entries."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    text = buf.getvalue()
    if argv[0] == "build":
        return code, _witness_parsed(json.loads(text))
    return code, json.loads(text) if "--json" in argv else _tokens(text)


def _close(got, want, where):
    """Floats within QUANTUM_TOL; everything else equal, type included."""
    if isinstance(want, float):
        assert type(got) is float and abs(got - want) <= QUANTUM_TOL, (where, got, want)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for k in want:
            _close(got[k], want[k], f"{where}/{k}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}/{k}")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _dense(nonzero):
    """Golden witness entries: the listed nonzero ones, 0.0 elsewhere on a 9 x 9 grid."""
    return {label: {(i, j): cells.get((i, j), (0.0, 0.0)) for i in range(9) for j in range(9)}
            for label, cells in nonzero.items()}


QUANTUM_GOLDEN = {
    'quantum-demo --trials 40 --seed 0':
        (0, (
            'scope: pointwise and seeded-sample checks (the ambient simplicial set is infinite and never materialized)\n'
            'witness: d2(Psi)=d1(Pi) residual 3.140e-16\n'
            'witness: |[A,B]| = 0.000e+00\n'
            'witness: |[B,C]| = 2.121320 (> 0.1)\n'
            'witness: |[A,C]| = 2.121320\n'
            'witness: Pi^01 rank = 4\n'
            'inverseless samples: 40/40 collapsed\n'
            'state identities (maximally mixed): 40/40\n'
            'state identities (random density): 40/40\n'
            'phi(omega^2 1) residual: 0.000e+00\n'
            'result: pass\n')),
    'quantum-demo --trials 40 --seed 0 --json':
        (0, {'inverseless_samples': {'max_collapse_residual': 2.2411577161459596e-15,
                                     'max_relation_residual': 0.0,
                                     'passed': 40,
                                     'trials': 40},
             'scope': 'pointwise and seeded-sample checks; the ambient simplicial set of '
                      'projective measurements is infinite and never materialized',
             'state_checks_maximally_mixed': {'max_face_additivity': 5.551115123125783e-16,
                                              'max_half': 0.0,
                                              'max_partial_additive': 4.440892098500626e-16,
                                              'max_swap_orth': 2.220446049250313e-16,
                                              'max_third_zero': 4.440892098500626e-16,
                                              'passed': 40,
                                              'phi_omega_sq_one_residual': 0.0,
                                              'trials': 40},
             'state_checks_random_density': {'max_face_additivity': 6.661338147750939e-16,
                                             'max_half': 0.0,
                                             'max_partial_additive': 4.440892098500626e-16,
                                             'max_swap_orth': 2.220446049250313e-16,
                                             'max_third_zero': 4.440892098500626e-16,
                                             'passed': 40,
                                             'phi_omega_sq_one_residual': 1.1102230246251565e-16,
                                             'trials': 40},
             'witness_checks': {'AB_commutator': 0.0,
                                'AC_commutator': 2.1213203435596424,
                                'BC_commutator': 2.1213203435596424,
                                'd2psi_eq_d1pi_residual': 3.1401849173675503e-16,
                                'pi01_rank': 4,
                                'pi_in_key_example': True,
                                'psi_in_key_example': True}}),
    'quantum-demo --trials 40 --seed 1':
        (0, (
            'scope: pointwise and seeded-sample checks (the ambient simplicial set is infinite and never materialized)\n'
            'witness: d2(Psi)=d1(Pi) residual 3.140e-16\n'
            'witness: |[A,B]| = 0.000e+00\n'
            'witness: |[B,C]| = 2.121320 (> 0.1)\n'
            'witness: |[A,C]| = 2.121320\n'
            'witness: Pi^01 rank = 4\n'
            'inverseless samples: 40/40 collapsed\n'
            'state identities (maximally mixed): 40/40\n'
            'state identities (random density): 40/40\n'
            'phi(omega^2 1) residual: 0.000e+00\n'
            'result: pass\n')),
    'quantum-demo --trials 40 --seed 1 --json':
        (0, {'inverseless_samples': {'max_collapse_residual': 1.9232773645751906e-15,
                                     'max_relation_residual': 0.0,
                                     'passed': 40,
                                     'trials': 40},
             'scope': 'pointwise and seeded-sample checks; the ambient simplicial set of '
                      'projective measurements is infinite and never materialized',
             'state_checks_maximally_mixed': {'max_face_additivity': 5.551115123125783e-16,
                                              'max_half': 0.0,
                                              'max_partial_additive': 4.440892098500626e-16,
                                              'max_swap_orth': 2.220446049250313e-16,
                                              'max_third_zero': 4.440892098500626e-16,
                                              'passed': 40,
                                              'phi_omega_sq_one_residual': 0.0,
                                              'trials': 40},
             'state_checks_random_density': {'max_face_additivity': 5.551115123125783e-16,
                                             'max_half': 0.0,
                                             'max_partial_additive': 5.551115123125783e-16,
                                             'max_swap_orth': 2.220446049250313e-16,
                                             'max_third_zero': 4.440892098500626e-16,
                                             'passed': 40,
                                             'phi_omega_sq_one_residual': 0.0,
                                             'trials': 40},
             'witness_checks': {'AB_commutator': 0.0,
                                'AC_commutator': 2.1213203435596424,
                                'BC_commutator': 2.1213203435596424,
                                'd2psi_eq_d1pi_residual': 3.1401849173675503e-16,
                                'pi01_rank': 4,
                                'pi_in_key_example': True,
                                'psi_in_key_example': True}}),
}
# the witness bundle's nonzero matrix entries; _dense fills in the zeros
WITNESS_GOLDEN = (0, {
    'dim': 9,
    'checks': {'AB_commutator': 0.0,
               'AC_commutator': 2.1213203435596424,
               'BC_commutator': 2.1213203435596424,
               'd2psi_eq_d1pi_residual': 3.1401849173675503e-16,
               'pi01_rank': 4,
               'pi_in_key_example': True,
               'psi_in_key_example': True},
    'entries': _dense({
        'A': {(0, 0): (1.0, 0.0),
              (1, 1): (1.0, 0.0),
              (2, 2): (1.0, 0.0),
              (3, 3): (-0.4999999999999998, 0.8660254037844387),
              (4, 4): (1.0, 0.0),
              (5, 5): (1.0, 0.0),
              (6, 6): (-0.5000000000000003, -0.8660254037844384),
              (7, 7): (1.0, 0.0),
              (8, 8): (-0.5000000000000003, -0.8660254037844384)},
        'B': {(0, 0): (1.0, 0.0),
              (1, 1): (-0.4999999999999998, 0.8660254037844387),
              (2, 2): (-0.5000000000000003, -0.8660254037844384),
              (3, 3): (1.0, 0.0),
              (4, 4): (-0.4999999999999998, 0.8660254037844387),
              (5, 5): (-0.4999999999999998, 0.8660254037844387),
              (6, 6): (1.0, 0.0),
              (7, 7): (-0.4999999999999998, 0.8660254037844387),
              (8, 8): (-0.5000000000000003, -0.8660254037844384)},
        'C': {(0, 0): (-0.4999999999999998, 0.8660254037844387),
              (1, 1): (1.0, 0.0),
              (2, 2): (0.24999999999999978, -0.4330127018922191),
              (2, 6): (0.75, 0.4330127018922191),
              (3, 3): (1.0, 0.0),
              (4, 4): (1.0, 0.0),
              (5, 5): (1.0, 0.0),
              (6, 2): (0.75, 0.4330127018922191),
              (6, 6): (0.24999999999999978, -0.4330127018922191),
              (7, 7): (1.0, 0.0),
              (8, 8): (1.0, 0.0)},
        'Pi 0.0': {(0, 0): (1.0, 0.0)},
        'Pi 0.1': {(1, 1): (1.0, 0.0),
                   (4, 4): (1.0, 0.0),
                   (5, 5): (1.0, 0.0),
                   (7, 7): (1.0, 0.0)},
        'Pi 0.2': {(2, 2): (1.0, 0.0)},
        'Pi 1.0': {(3, 3): (1.0, 0.0)},
        'Pi 1.1': {},
        'Pi 1.2': {},
        'Pi 2.0': {(6, 6): (1.0, 0.0)},
        'Pi 2.1': {},
        'Pi 2.2': {(8, 8): (1.0, 0.0)},
        'Psi 0.0': {},
        'Psi 0.1': {(0, 0): (1.0, 0.0)},
        'Psi 0.2': {},
        'Psi 1.0': {(1, 1): (1.0, 0.0),
                    (3, 3): (1.0, 0.0),
                    (4, 4): (1.0, 0.0),
                    (5, 5): (1.0, 0.0),
                    (7, 7): (1.0, 0.0),
                    (8, 8): (1.0, 0.0)},
        'Psi 1.1': {},
        'Psi 1.2': {},
        'Psi 2.0': {(2, 2): (0.4999999999999999, 0.0),
                    (2, 6): (0.4999999999999999, 0.0),
                    (6, 2): (0.4999999999999999, 0.0),
                    (6, 6): (0.4999999999999999, 0.0)},
        'Psi 2.1': {},
        'Psi 2.2': {(2, 2): (0.4999999999999999, 0.0),
                    (2, 6): (-0.4999999999999999, -0.0),
                    (6, 2): (-0.4999999999999999, 0.0),
                    (6, 6): (0.4999999999999999, 0.0)},
    }),
})


@pytest.mark.parametrize("argv", QUANTUM_DEMOS + (("build", "key-example-witness"),),
                         ids=" ".join)
def test_quantum_golden(argv):
    code, got = run_quantum(argv)
    want_code, want = (WITNESS_GOLDEN if argv[0] == "build"
                       else QUANTUM_GOLDEN[" ".join(argv)])
    assert code == want_code
    _close(got, _tokens(want) if isinstance(want, str) else want, " ".join(argv))


SAMPLE_TOL = 1e-9
# a fixed real weight on every (outcome, row, column) entry of a 2-simplex
SAMPLE_WEIGHTS = np.cos(np.arange(9 * q.DIM * q.DIM)).reshape(9, q.DIM, q.DIM)
# seed -> (inverseless, state on the maximally mixed density, state on the
# random density); the last draws from seed + 1, as the demo seeds it
SAMPLE_GOLDEN = {
    "0": (24.76859832822585, -2.5619101049889696, 3.5968104372499496),
    "1": (40.860356513288146, 3.5968104372499496, 3.8464819511141517),
}


def sampled_sums(monkeypatch, argv):
    """Per sampled check of the demo, in call order: the sum over every
    2-simplex it validates of the weighted sum of its real entries.  The
    witness, validated before the first check, is not counted."""
    sums = []
    validate = q.ProjectiveMeasurement.validate

    def recording(m):
        if m.arity == 2 and sums:
            sums[-1] += float(np.sum(m.blocks.real.reshape(-1, 9, q.DIM, q.DIM) * SAMPLE_WEIGHTS))
        validate(m)

    def opening(check):
        def run(*args):
            sums.append(0.0)
            return check(*args)
        return run

    with monkeypatch.context() as patch:
        patch.setattr(q.ProjectiveMeasurement, "validate", recording)
        for name in ("inverseless_sample_check", "key_example_state_check"):
            patch.setattr(q, name, opening(getattr(q, name)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0
    return sums


@pytest.mark.parametrize("seed", sorted(SAMPLE_GOLDEN))
def test_quantum_samples_golden(monkeypatch, seed):
    """The inverseless check, then the state check on the maximally mixed and
    on the random density, of `quantum-demo --trials 40`."""
    got = sampled_sums(monkeypatch, ("quantum-demo", "--trials", "40", "--seed", seed))
    assert len(got) == len(SAMPLE_GOLDEN[seed])
    for g, want in zip(got, SAMPLE_GOLDEN[seed]):
        assert abs(g - want) <= SAMPLE_TOL, (seed, got)
