"""Finite inverse semigroups, their filter spaces and groupoids, and
executable verification of the isomorphism and Morita-equivalence
properties connecting them."""

from . import errors
from .semigroups import (
    FiniteGroup,
    InvSemigroup,
    PartialGroupHom,
    SemigroupHom,
    SigmaMap,
    eunitary_cover,
    hom_from_sigma,
    is_e_unitary,
    is_idempotent_pure_partial_hom,
    is_locally_idempotent_pure,
    is_zero_e_unitary,
    max_group_image,
    partial_group_hom,
    rees_quotient,
    semigroup_from_json,
    semigroup_hom,
    validate_group,
    validate_semigroup,
)
from .fixtures import generate_fixture
from .spectra import (
    CharSpace,
    DownsetCertificate,
    Filter,
    Semilattice,
    check_ks_condition,
    enumerate_filters,
    hat_map,
    semilattice_hom,
    tight_spectrum,
)
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    GroupoidSpaceAction,
    enveloping_action_of_functor,
    functor_report,
    groupoid_functor,
    is_faithful,
    reduction,
    semidirect_product,
    validate_groupoid,
    verify_isomorphism,
)
from .germs import (
    GermGroupoid,
    SAction,
    beta_action,
    germ_groupoid,
    gspace_from_saction,
    ideal_perp,
    induced_functor,
    saction_from_gspace,
    tight_groupoid,
    universal_groupoid,
    validate_saction,
    verify_equiv_roundtrip,
    verify_reduction_iso,
)
from .partial_actions import (
    EnvelopeResult,
    KSPipelineResult,
    PartialGroupAction,
    enveloping_group_action,
    ks_pipeline,
    partial_trans_groupoid,
    theta_from_sigma,
    validate_partial_action,
    verify_main1,
)
from .matrixrep import (
    ConvolutionAlgebra,
    center_dimension,
    convolution_algebra,
    covariant_rep,
    intertwiner_u,
    left_regular_rep,
    verify_intertwining,
)
from .verify import VerifyReport, analyze, run_suite

__version__ = "0.1.0"
