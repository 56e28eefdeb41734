"""Finite simplicial effects toolkit.

Partial unital magmas and their associativity hierarchy, truncated
simplicial and cyclic sets with the full checker battery (spiny, reduced,
coskeletal, 2-Segal, weakly 2-Segal, inverseless), nerve constructions,
exact rational states and degree-one cyclic cohomology, and the numerical
C^9 key example.
"""

__all__ = ["__version__"]

__version__ = "0.1.0"
