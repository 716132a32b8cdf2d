"""Exact enumeration of nodal curves on surfaces.

Node counts and node polynomials in the four Chern numbers of a polarized
surface, diagonal equivalence and correction terms, multisingularity counts,
and the quasi-modular power-series identities constraining the universal
coefficient table.  All arithmetic is exact (integers and rationals); there
is no floating point in the computational core.
"""

from .chow import (
    ChernNumbers,
    GradedClass,
    LinearForm,
    P2Class,
    c_correction,
    c_correction_p2,
    chern_principal_parts,
    critical_class,
    excess_a1a2,
    excess_a1a2_p2,
    inverse_tangent_chern,
    multiple_point_degree,
    pushforward_to_Y,
    q_general,
    q_p2_closed,
    q_p2_extraction,
)
from .bell import (
    complete_bell,
    complete_bell_sequence,
    partial_bell,
)
from .exact import PolyD, SparsePoly, binomial
from .kazarian import aut_order, count_multisingular, parse_type, s_alpha, type_key
from .partitions import (
    SetPartition,
    enumerate_partitions,
    iter_partitions,
    mobius_coefficient,
    signature_count,
)
from .qseries import (
    PowerSeries,
    discriminant,
    eisenstein_g2,
    gyz_channel_residual,
    recover_b1,
    recover_b2,
    recover_log_b1,
    recover_log_b2,
    series_exp,
    series_log,
)
from .tables import (
    NodeLinearForm,
    a_decomposition_check,
    a_form,
    node_count,
    node_polynomial,
    ratio_table,
    severi_degree_p2,
)

__version__ = "0.1.0"
