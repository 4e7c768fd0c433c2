"""classprime: class groups of imaginary quadratic discriminants and the
distribution of primes among ideal classes."""

from .qform import (
    Discriminant,
    QuadForm,
    NotADiscriminant,
    DiscMismatch,
    InvariantViolation,
    validate_discriminant,
    is_fundamental,
    identity_form,
    reduce,
    compose,
)
from .classgroup import (
    ClassGroup,
    NotFundamental,
    InvalidIdealBasis,
    enumerate_reduced_forms,
    group_structure,
    ideal_class_of,
)
from .arith import (
    LimitTooLarge,
    PrimeClassification,
    LOneEstimate,
    unit_count,
    kronecker,
    sieve_primes,
    iter_prime_blocks,
    sqrt_mod_prime,
    sqrt_disc_mod_4p,
    classify_prime,
    representation_counts_upto,
    dirichlet_r_upto,
    chi_table,
    l_one_chi,
    class_number_from_l,
)
from .stats import (
    IdentityMismatch,
    Weight,
    PsiReport,
    bump_weight,
    indicator_weight,
    get_weight,
    weight_eval,
    psi_by_class,
    psi_by_char,
    psi_from_chars,
    variance,
    variance_report,
    least_primes,
    least_prime_ideal_norms,
    least_prime_summary,
    exceptional_count,
    exceptional_count_primes,
    count_exceptional,
)
from .heegner import (
    CMPoints,
    HeegnerPoint,
    RepulsionReport,
    heegner_point,
    heegner_points,
    coefficient_bound_fraction,
    cramer_prediction,
    cramer_class_number_pairing,
    repulsion_report,
)

__version__ = "0.1.0"
