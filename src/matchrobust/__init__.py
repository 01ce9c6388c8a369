"""Stable-matching robustness, metric preference structure, and
communication requirements."""

from .communication import (
    AdmissibilityReport,
    BoundConstants,
    BoundTable,
    DecayFunction,
    HardnessFunction,
    admissibility_report,
    bound_table,
    communication_requirement,
    decay_inverse,
)
from .embedding import (
    BanachSearchResult,
    DistortionReport,
    EuclideanPlacement,
    bourgain_embed,
    log_size_robustness_cap,
    maximize_euclidean_robustness,
    measure_distortion,
    log_genus_robustness_cap,
)
from .markets import (
    ExtensionalProfile,
    MarketProfile,
    MatchingMarket,
    Perturbation,
    RankBasedProfile,
    UtilityProfile,
    apply_perturbation,
    geometric_market,
)
from .metric import (
    MetricSpace,
    NotPolarized,
    Placement,
    PolarityCheck,
    build_generating_space,
    is_polarized,
    random_connected_space,
    union_generating_space,
    utilities_from_space,
    verify_generating,
)
from .ordinal import (
    Assignment,
    OrdinalProfile,
    Side,
    StablePair,
    TieError,
    TiePolicy,
    deferred_acceptance,
    distinguishing_profile,
    enumerate_stable,
    ordinal_from_utility_flagged,
    phi,
    uniform_profile,
)
from .planar import (
    genus_lower_bound,
    is_planar,
    nonplanar_profile,
    search_planar_representation,
)
from .robustness import (
    AdversarialWitness,
    CriticalSpikeSampler,
    DivisionByZeroUtility,
    IidUniformFactorSampler,
    PerturbationSample,
    adversarial_witness,
    spike_factor,
    critical_consecutive_ratio,
    critical_market,
    preservation_probability,
    rank_slot_factor_stats,
    robustness,
    robustness_by_search,
    sufficient_robustness_level,
)
from .seeding import DEFAULT_SEED, rng_for

__version__ = "0.1.0"
