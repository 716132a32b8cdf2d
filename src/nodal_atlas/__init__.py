"""Exact enumeration of nodal curves on surfaces.

Node counts and node polynomials in the four Chern numbers of a polarized
surface, diagonal equivalence and correction terms, multisingularity counts,
and the quasi-modular power-series identities constraining the universal
coefficient table.  All arithmetic is exact (integers and rationals); there
is no floating point in the computational core.  Each name is imported from
the module that defines it, e.g. ``from nodal_atlas.tables import node_count``.
"""

__version__ = "0.1.0"
