"""Fork server for the benchmark.

A `Zygote` is a process that has imported simpeff and nothing else runs in
it.  On request it forks one child, which runs either one CLI invocation
or the machine-speed reference (calibrate.py), and reports the child's exit
code, fork-to-reap wall time and peak RSS.  Forking from here rather than
from the harness gives every invocation the same freshly imported start,
whatever the harness parsed or kept in between, and keeps the harness's
heap out of the children's RSS.

Requests and replies are JSON lines over two pipes.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback

import calibrate
import tracer

CRASH_EXIT = 70


def _invoke(cli, req):
    """Child side of an invocation: the CLI with its output sent to files."""
    for fd, path in ((1, req["stdout"]), (2, req["stderr"])):
        target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(target, fd)
        os.close(target)
    sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
    sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
    recorder = tracer.Recorder() if req["spans"] else None
    if recorder:
        tracer.install(recorder)
    try:
        code = cli.main(list(req["argv"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    sys.stderr.flush()
    if recorder:
        recorder.dump(req["spans"])
    return code


def _reference(_cli, _req):
    return 0 if calibrate.reference() else 1


def _serve(src, cmd_fd, res_fd):
    res = os.fdopen(res_fd, "w")

    def reply(**body):
        res.write(json.dumps(body) + "\n")
        res.flush()

    sys.path.insert(0, src)
    try:
        import simpeff.cli as cli
    except Exception as exc:  # report any import failure to the harness
        reply(error=f"cannot import simpeff: {type(exc).__name__}: {exc}")
        return
    reply(file=cli.__file__)
    with os.fdopen(cmd_fd) as cmd:
        for line in cmd:
            req = json.loads(line)
            child = _reference if req["kind"] == "reference" else _invoke
            gc.collect()
            start = time.perf_counter()
            pid = os.fork()
            if pid == 0:
                code = CRASH_EXIT
                try:
                    code = child(cli, req)
                except BaseException:  # noqa: B036 - the child must always reach os._exit
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(code if isinstance(code, int) else CRASH_EXIT)
            _, status, usage = os.wait4(pid, 0)
            reply(code=os.waitstatus_to_exitcode(status),
                  seconds=time.perf_counter() - start, maxrss_kb=usage.ru_maxrss)


class Zygote:
    """Handle on the fork server; close() (or a with block) stops it."""

    def __init__(self, src):
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                os.close(cmd_w)
                os.close(res_r)
                _serve(src, cmd_r, res_w)
            except BaseException:  # noqa: B036 - the server must always reach os._exit
                traceback.print_exc()
                code = CRASH_EXIT
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(res_w)
        self.pid = pid
        self._cmd = os.fdopen(cmd_w, "w")
        self._res = os.fdopen(res_r, "r")
        hello = self._receive()
        self.error = hello.get("error")
        self.simpeff_file = hello.get("file")

    def _receive(self):
        line = self._res.readline()
        if not line:
            raise RuntimeError("the fork server exited")
        return json.loads(line)

    def _request(self, **req):
        self._cmd.write(json.dumps(req) + "\n")
        self._cmd.flush()
        return self._receive()

    def invoke(self, argv, stdout, stderr, spans=None):
        """Run the CLI once; returns {"code", "seconds", "maxrss_kb"}."""
        return self._request(kind="invoke", argv=list(argv), stdout=stdout, stderr=stderr,
                             spans=spans)

    def reference(self):
        """Time calibrate.reference() in a fresh child; returns seconds."""
        rep = self._request(kind="reference")
        if rep["code"] != 0:
            raise RuntimeError(f"reference computation exited {rep['code']}")
        return rep["seconds"]

    def close(self):
        self._cmd.close()
        self._res.close()
        os.waitpid(self.pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
