"""Exact central generators for enveloping algebras of nilpotent centralizers.

Given a weakly monotone composition lam of N, the package models the
centralizer of the associated Jordan nilpotent inside gl_N, constructs the
N generators of the center of its enveloping algebra as sums of column
determinants in exact arithmetic, and verifies centrality, invariance of
the top symbols, restriction to the affine slice, algebraic independence,
and the free-algebra symbol-determinant expansions.  Each name is
imported from its own module; the package root exports nothing.
"""
