"""Finite exchangeable random-network models at desk scale.

Exact subgraph and injective-homomorphism counting, the subgraph-occurrence
(Mobius) parametrization and its inversion, maximum likelihood for
exchangeable and dissociated models, dyad-level Markov structure, generative
models, and extendability feasibility checks, all verifiable exactly for
networks with up to about seven nodes.
"""

from .counting import (
    ClassTable,
    class_table,
    inj,
    r_count,
    sigma,
    sigma_vector,
    star_count_from_degrees,
    sub,
    two_disjoint_edges_from_degrees,
)
from .dependence import (
    DependenceGraph,
    ci_test,
    classify_skeleton,
    dissociated_check,
    global_markov_check,
    incidence_cliques,
    incidence_graph,
    kneser_graph,
    skeleton,
)
from .estimation import (
    ErgmSpec,
    FitReport,
    degree_collision_classes,
    dissociated_mle,
    ergm_eval,
    ergm_fit,
    ergm_stats,
    exch_mle,
    sigma_is_degree_function,
    summarized_check,
    summarized_constraints,
)
from .extendability import (
    CertificateError,
    ExtendabilityReport,
    dissociated_extendable_check,
    extendable_check,
    marginalize_joint,
)
from .genmodels import (
    BetaSpec,
    Graphon,
    MixingSpec,
    beta_joint,
    er_characterization_diagnostic,
    er_joint,
    er_mobius,
    graphon_sample,
    graphon_z,
    marginal_beta_joint,
)
from .graphs import (
    DegreeDistribution,
    InvariantError,
    LabeledNetwork,
    SizeCapError,
    UnlabeledClass,
    aut_count,
    canonical_form,
    connected_components,
    degree_distribution,
    enumerate_classes,
)
from .mobius import (
    ClassDistribution,
    InvalidParametersError,
    JointTable,
    LabeledMobius,
    MobiusVector,
    bidirected_joint,
    exch_joint_from_mobius,
    joint_from_labeled_mobius,
    labeled_mobius_from_joint,
    mobius_from_class_distribution,
    validate_mobius,
)

__version__ = "0.1.0"
