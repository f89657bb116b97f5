"""Pytest entry points for the generated-case property suites."""

from property_suites import (
    check_cf_convexity,
    check_cf_one_iff_strongly_contextual,
    check_marginal_agreement_on_overlaps,
    check_masks_fit_or_are_refused,
    check_merged_partition_never_moves_cf,
    check_orbit_cf_matches_full_lp,
    check_orbit_lift_mutations_fail_certificate,
    check_parity_consistency_matches_satisfiability,
    check_polytope_dimension_formula,
    check_possibilistic_roundtrip,
    check_quotient_certificate_matches_full_lp,
    check_refined_cf_matches_orbit_lp,
)

test_cf_one_iff_strongly_contextual = check_cf_one_iff_strongly_contextual
test_parity_consistency_matches_satisfiability = (
    check_parity_consistency_matches_satisfiability
)
test_marginal_agreement_on_overlaps = check_marginal_agreement_on_overlaps
test_cf_convexity = check_cf_convexity
test_possibilistic_roundtrip = check_possibilistic_roundtrip
test_polytope_dimension_formula = check_polytope_dimension_formula
test_orbit_cf_matches_full_lp = check_orbit_cf_matches_full_lp
test_orbit_lift_mutations_fail_certificate = check_orbit_lift_mutations_fail_certificate
test_quotient_certificate_matches_full_lp = check_quotient_certificate_matches_full_lp
test_possibilistic_masks_fit_or_are_refused = check_masks_fit_or_are_refused
test_refined_cf_matches_orbit_lp = check_refined_cf_matches_orbit_lp
test_merged_partition_never_moves_cf = check_merged_partition_never_moves_cf
