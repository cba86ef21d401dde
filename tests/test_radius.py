import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovjsr import (
    BoundSequencePoint,
    MatrixSet,
    NormKind,
    TransitionMatrix,
    ValidationError,
    WordClass,
    alternative_class_chain,
    audit_factor_structure,
    operator_norm,
    full_verification,
    lift_set,
    omega_factor,
    sandwich,
)
from markovjsr import radius
from markovjsr.instancefile import load_instance
from markovjsr.radius import ClassChainCheck, CrossBound, LiftEqualityCheck
from tests.conftest import (
    brute_norm_bound,
    brute_spectral_bound,
    count_sweeps,
    fold_product,
    random_binary_rows,
    random_cyclic_instance,
    scaled,
)

GOLDEN_ROWS = [[1, 1], [1, 0]]
SQRT6 = math.sqrt(6.0)


def _by_class(row):
    return {p.word_class: p for p in row}


def _norm_point(mats, om, n, word_class=WordClass.MARKOV):
    """The length-n norm bound of a class, from the class-chain rows."""
    return _by_class(alternative_class_chain(mats, om, n)[n - 1])[word_class]


def _markov_values(mats, om, n_max):
    """The Markov-class norm bounds of lengths 1..n_max, by length."""
    rows = alternative_class_chain(mats, om, n_max)
    return {n: _by_class(row)[WordClass.MARKOV].value for n, row in enumerate(rows, 1)}


def _spectral_point(mats, om, n):
    """The length-n periodic spectral bound."""
    return sandwich(mats, om, n).lower[n - 1]


def _lift_check(mats, om, n, norm=NormKind.ROWSUM):
    """The lift equality check at length n, lifted side by the dense oracle."""
    return full_verification(mats, om, n, norm).equality_checks[n - 1]


# ------------------------------------------------------------ norm bounds


def test_rho_n_golden_mean_brute_force(golden_mean_scalars, golden_mean_omega):
    # oracle: the three admissible 2-letter words give products {4, 6, 6}
    oracle = brute_norm_bound([m for m in golden_mean_scalars.members], GOLDEN_ROWS, 2, "markov")
    assert oracle == pytest.approx(SQRT6, abs=1e-15)
    point = _norm_point(golden_mean_scalars, golden_mean_omega, 2)
    assert point.value == pytest.approx(oracle, abs=1e-12)
    assert not point.empty_word_set


def test_rho_n_complete_alphabet_equals_classical():
    rng = np.random.default_rng(17)
    members = [rng.uniform(-1, 1, (2, 2)) for _ in range(3)]
    mats = MatrixSet.from_members(members)
    om = TransitionMatrix.complete(3)
    rows = [[1] * 3] * 3
    values = _markov_values(mats, om, 4)
    for n in range(1, 5):
        oracle = brute_norm_bound(members, rows, n, "markov")
        assert values[n] == pytest.approx(oracle, rel=1e-12)


def test_rho_n_empty_word_set_flag():
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[0, 0], [1, 0]])
    point = _norm_point(mats, om, 3)
    assert point.value == 0.0 and point.empty_word_set


# -------------------------------------------------------- spectral bounds


def test_rho_hat_n_golden_mean(golden_mean_scalars, golden_mean_omega):
    oracle = brute_spectral_bound(
        [m for m in golden_mean_scalars.members], GOLDEN_ROWS, 2, "periodic"
    )
    assert oracle == pytest.approx(SQRT6, abs=1e-15)
    point = _spectral_point(golden_mean_scalars, golden_mean_omega, 2)
    assert point.value == pytest.approx(oracle, rel=1e-9)


def test_rho_hat_n_length_one_needs_self_loops(golden_mean_scalars, golden_mean_omega):
    # only letter 1 loops, so the length-1 periodic bound is rho(A_1) = 2
    point = _spectral_point(golden_mean_scalars, golden_mean_omega, 1)
    assert point.value == pytest.approx(2.0, rel=1e-9)
    no_loops = TransitionMatrix.from_rows([[0, 1], [1, 0]])
    point = _spectral_point(golden_mean_scalars, no_loops, 1)
    assert point.value == 0.0 and point.empty_word_set


def test_rho_hat_n_singleton_reduces_to_single_matrix_radius():
    m = np.array([[0.4, 1.0], [0.1, 0.3]])
    mats = MatrixSet.from_members([m])
    om = TransitionMatrix.from_rows([[1]])
    want = float(max(abs(np.linalg.eigvals(m))))
    for point in sandwich(mats, om, 4).lower:
        assert point.value == pytest.approx(want, rel=1e-8)


# ----------------------------------------------------------- lifted bounds


def test_rho_n_lifted_length_one_max_member_norm(four_letter_omega):
    rng = np.random.default_rng(23)
    members = [rng.uniform(-1, 1, (2, 2)) for _ in range(4)]
    mats = MatrixSet.from_members(members)
    want = max(float(np.abs(m).sum(axis=1).max()) for m in members)
    assert _lift_check(mats, four_letter_omega, 1).norm_lifted == pytest.approx(want, rel=1e-12)
    assert _norm_point(mats, four_letter_omega, 1).value == pytest.approx(want, rel=1e-12)


def test_rho_n_lifted_length_one_skips_letters_without_continuation():
    # no letter may follow 2, so its lifted image is the zero matrix and
    # only the first member's norm shows up at length 1
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[9.0]])])
    om = TransitionMatrix.from_rows([[1, 0], [1, 0]])
    assert _lift_check(mats, om, 1).norm_lifted == pytest.approx(2.0, rel=1e-12)
    assert _norm_point(mats, om, 1).value == pytest.approx(2.0, rel=1e-12)


def test_rho_n_lifted_golden_mean_matches_constrained(
    golden_mean_scalars, golden_mean_omega
):
    check = _lift_check(golden_mean_scalars, golden_mean_omega, 2)
    assert check.norm_lifted == pytest.approx(SQRT6, rel=1e-12)
    assert _norm_point(golden_mean_scalars, golden_mean_omega, 2).value == pytest.approx(
        SQRT6, rel=1e-12
    )


def test_rho_n_lifted_all_zero_transitions():
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[0, 0], [0, 0]])
    assert _lift_check(mats, om, 3).norm_lifted == 0.0
    assert _norm_point(mats, om, 3).value == 0.0


def test_rho_hat_n_lifted_golden_mean(golden_mean_scalars, golden_mean_omega):
    check = _lift_check(golden_mean_scalars, golden_mean_omega, 2)
    assert check.spectral_lifted == pytest.approx(SQRT6, rel=1e-9)
    assert _spectral_point(golden_mean_scalars, golden_mean_omega, 2).value == pytest.approx(
        SQRT6, rel=1e-9
    )


def test_admissible_but_not_periodic_word_contributes_zero():
    # letter (2,) is admissible (1 may follow 2) but has no self-loop; its
    # lifted image is strictly nilpotent, confirmed by an eigenvalue check
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[1, 1], [1, 0]])
    lifted = lift_set(mats, om)
    eigs = np.linalg.eigvals(lifted.members[1])
    assert np.max(np.abs(eigs)) == pytest.approx(0.0, abs=1e-12)
    # the length-1 lifted spectral bound sees only the self-loop letter
    assert _lift_check(mats, om, 1).spectral_lifted == pytest.approx(2.0, rel=1e-9)


def test_lifted_engines_agree_on_random_instances():
    # the dense lifted oracle multiplies full block matrices, the base bounds
    # fold base products over the admissible / periodic words; the norm
    # sequences they see coincide, so values match tightly
    rng = np.random.default_rng(321)
    for _ in range(15):
        mats, om = random_cyclic_instance(rng, max_letters=3, max_dim=2)
        markov = _markov_values(mats, om, 4)
        periodic = sandwich(mats, om, 4).lower
        for check in full_verification(mats, om, 4).equality_checks:
            a = markov[check.n]
            b = check.norm_lifted
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            c = periodic[check.n - 1].value
            d = check.spectral_lifted
            assert c == pytest.approx(d, rel=1e-12, abs=1e-12)


def test_forbidden_word_gives_exactly_zero_lifted_product(
    golden_mean_scalars, golden_mean_omega
):
    lifted = lift_set(golden_mean_scalars, golden_mean_omega)
    product = lifted.members[1] @ lifted.members[1]  # word (2, 2) is forbidden
    assert not product.any()


# ------------------------------------------------------- the lift equality


def test_lift_equalities_golden_mean_exact(golden_mean_scalars, golden_mean_omega):
    for check in full_verification(golden_mean_scalars, golden_mean_omega, 6).equality_checks:
        assert check.max_abs_diff <= 1e-12
        assert check.passed


def test_lift_equalities_against_independent_brute_force(four_letter_omega):
    # all four quantities recomputed with raw numpy enumeration
    rng = np.random.default_rng(8)
    members = [rng.uniform(-1, 1, (2, 2)) for _ in range(4)]
    mats = MatrixSet.from_members(members)
    lifted_members = [
        np.kron(omega_factor(four_letter_omega, i), m)
        for i, m in enumerate(members, start=1)
    ]
    rows = [[int(v) for v in row] for row in four_letter_omega.entries]
    import itertools

    checks = full_verification(mats, four_letter_omega, 3).equality_checks
    for n in (1, 2, 3):
        norm_lift = 0.0
        spec_lift = 0.0
        for word in itertools.product(range(1, 5), repeat=n):
            product = fold_product(lifted_members, word)
            block_rows = np.abs(product).reshape(4, 2, 4, 2).sum(axis=3).max(axis=1)
            norm_lift = max(norm_lift, float(block_rows.sum(axis=1).max()))
            spec_lift = max(spec_lift, float(max(abs(np.linalg.eigvals(product)))))
        norm_lift = norm_lift ** (1.0 / n) if norm_lift else 0.0
        spec_lift = spec_lift ** (1.0 / n) if spec_lift else 0.0
        oracle_markov = brute_norm_bound(members, rows, n, "markov")
        oracle_periodic = brute_spectral_bound(members, rows, n, "periodic")
        assert norm_lift == pytest.approx(oracle_markov, rel=1e-10, abs=1e-12)
        assert spec_lift == pytest.approx(oracle_periodic, rel=1e-8, abs=1e-10)
        check = checks[n - 1]
        assert check.norm_lifted == pytest.approx(norm_lift, rel=1e-10)
        assert check.spectral_lifted == pytest.approx(spec_lift, rel=1e-7, abs=1e-9)
        assert check.passed


def test_lift_equalities_randomized_spot_checks():
    rng = np.random.default_rng(606)
    for _ in range(20):
        mats, om = random_cyclic_instance(rng)
        assert all(c.passed for c in full_verification(mats, om, 4).equality_checks)


@pytest.mark.parametrize("kind", list(NormKind))
def test_lift_equalities_hold_for_every_norm_kind(kind):
    # the block norm built on any sub-multiplicative inner norm sees the
    # single-block-column structure the same way
    rng = np.random.default_rng(913)
    for _ in range(8):
        mats, om = random_cyclic_instance(rng, max_letters=3, max_dim=2)
        for check in full_verification(mats, om, 3, norm=kind).equality_checks:
            assert check.passed, (kind, check.n, check)


def test_lift_equalities_on_defective_family():
    # parabolic (Jordan-type) members exercise the slow-convergence path of
    # the spectral iteration
    j1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    j2 = np.array([[0.5, 2.0], [0.0, 0.5]])
    mats = MatrixSet.from_members([j1, j2])
    om = TransitionMatrix.from_rows([[1, 1], [1, 0]])
    assert all(c.passed for c in full_verification(mats, om, 5).equality_checks)
    report = sandwich(mats, om, 12)
    assert report.best_lower == pytest.approx(1.0, abs=1e-8)
    assert report.best_upper >= report.best_lower


def test_lift_equalities_complex_instance():
    rng = np.random.default_rng(77)
    members = [
        rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) for _ in range(2)
    ]
    mats = MatrixSet.from_members(members, field_tag="complex")
    om = TransitionMatrix.from_rows(GOLDEN_ROWS)
    assert all(c.passed for c in full_verification(mats, om, 4).equality_checks)


def test_complete_alphabet_periodic_equals_unconstrained_spectral():
    rng = np.random.default_rng(15)
    members = [rng.uniform(-1, 1, (2, 2)) for _ in range(2)]
    mats = MatrixSet.from_members(members)
    om = TransitionMatrix.complete(2)
    rows = [[1, 1], [1, 1]]
    got = _lift_check(mats, om, 3).spectral_lifted
    oracle = brute_spectral_bound(members, rows, 3, "periodic")
    unconstrained = brute_spectral_bound(members, rows, 3, "markov")
    assert oracle == pytest.approx(unconstrained, rel=1e-12)  # every word closes up
    assert got == pytest.approx(oracle, rel=1e-7)


# ---------------------------------------------------------------- sandwich


def test_sandwich_golden_mean(golden_mean_scalars, golden_mean_omega):
    report = sandwich(golden_mean_scalars, golden_mean_omega, 8)
    assert report.best_lower == pytest.approx(SQRT6, abs=1e-9)
    assert report.best_upper == pytest.approx(SQRT6, abs=1e-9)
    assert report.gap <= 1e-9
    assert report.best_lower_n == 2
    assert report.best_upper_n == 2
    assert report.alpha == 3.0
    assert all(c.ok for c in report.cross_bounds)


def test_sandwich_pair_with_known_lower_bound():
    a1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    a2 = np.array([[1.0, 0.0], [1.0, 1.0]])
    mats = MatrixSet.from_members([a1, a2])
    om = TransitionMatrix.complete(2)
    report = sandwich(mats, om, 10)
    golden_ratio = (1 + math.sqrt(5)) / 2  # sqrt of rho(A2 A1)
    assert report.best_lower >= golden_ratio - 1e-9
    assert report.gap <= 0.15
    # cross-check the first few lengths against brute force
    rows = [[1, 1], [1, 1]]
    for point in report.upper:
        if point.n <= 6:
            oracle = brute_norm_bound([a1, a2], rows, point.n, "markov")
            assert point.value == pytest.approx(oracle, rel=1e-12)
    for point in report.lower:
        if point.n <= 6:
            oracle = brute_spectral_bound([a1, a2], rows, point.n, "periodic")
            assert point.value == pytest.approx(oracle, rel=1e-7)


def test_sandwich_acyclic_instance_collapses_to_zero():
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[0, 0], [1, 0]])
    report = sandwich(mats, om, 4)
    for point in report.upper:
        if point.n >= 2:
            assert point.value == 0.0 and point.empty_word_set
    assert report.best_upper == 0.0
    assert report.best_lower == 0.0


def test_sandwich_alternating_cycle_has_periodic_words_only_at_even_lengths():
    # pure 2-cycle: letters must alternate, so words close up only at even
    # lengths; odd lengths report an empty periodic set, yet both aggregates
    # still meet at sqrt(6)
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[0, 1], [1, 0]])
    report = sandwich(mats, om, 8)
    for point in report.lower:
        if point.n % 2 == 1:
            assert point.empty_word_set and point.value == 0.0
        else:
            assert point.value == pytest.approx(SQRT6, rel=1e-9)
    assert report.best_lower == pytest.approx(SQRT6, rel=1e-9)
    assert report.best_upper == pytest.approx(SQRT6, rel=1e-12)
    # the lift equalities cover the empty case too: both spectral sides are 0
    check = _lift_check(mats, om, 3)
    assert check.spectral_lifted == 0.0 and check.spectral_periodic == 0.0
    assert check.passed


def test_sandwich_upper_classes_that_split_are_sound():
    # chain, admissible, and infinitely extendable words all split under
    # concatenation, so their running-minimum upper bounds never cross the
    # certified lower bound; the periodic class does not qualify
    rng = np.random.default_rng(2718)
    sound = (WordClass.CHAIN, WordClass.MARKOV, WordClass.INFINITELY_EXTENDABLE)
    trials = 0
    while trials < 30:
        mats, om = random_cyclic_instance(rng)
        trials += 1
        for cls in sound:
            report = sandwich(mats, om, 5, upper_class=cls)
            assert report.best_lower <= report.best_upper + 1e-9 * (1 + report.best_upper)


def test_bound_point_over_no_words_must_be_zero():
    with pytest.raises(ValidationError, match="an empty word set must report the bound 0"):
        BoundSequencePoint(n=1, value=1.0, word_class=WordClass.MARKOV, empty_word_set=True)
    assert BoundSequencePoint(n=1, value=0.0, word_class=WordClass.MARKOV, empty_word_set=True)


def test_sandwich_rejects_periodic_upper_class(golden_mean_scalars, golden_mean_omega):
    # concrete undershoot: on the alternating 2-cycle the periodic norm
    # bound vanishes at odd lengths while the rate is sqrt(6)
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[0, 1], [1, 0]])
    per_point = _norm_point(mats, om, 3, WordClass.PERIODICALLY_EXTENDABLE)
    assert per_point.value == 0.0 and per_point.empty_word_set
    with pytest.raises(ValidationError, match="periodic-class"):
        sandwich(
            golden_mean_scalars, golden_mean_omega, 4,
            upper_class=WordClass.PERIODICALLY_EXTENDABLE,
        )


def test_sandwich_aggregates_are_monotone(golden_mean_scalars, golden_mean_omega):
    uppers, lowers = [], []
    for n_max in range(1, 9):
        report = sandwich(golden_mean_scalars, golden_mean_omega, n_max)
        uppers.append(report.best_upper)
        lowers.append(report.best_lower)
    assert all(a >= b - 1e-15 for a, b in zip(uppers, uppers[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))


def test_sandwich_scale_equivariance():
    rng = np.random.default_rng(51)
    mats, om = random_cyclic_instance(rng, max_letters=3, max_dim=2)
    factor = -1.7
    base = sandwich(mats, om, 5)
    report = sandwich(scaled(mats, factor), om, 5)
    for p, q in zip(base.upper + base.lower, report.upper + report.lower):
        assert q.value == pytest.approx(abs(factor) * p.value, rel=1e-10, abs=1e-12)
    assert report.best_upper == pytest.approx(abs(factor) * base.best_upper, rel=1e-10)
    assert report.best_lower == pytest.approx(abs(factor) * base.best_lower, rel=1e-10)


def test_classical_bounds_singleton_converges_to_radius():
    m = np.array([[0.9, 0.5], [0.0, 0.8]])
    mats = MatrixSet.from_members([m])
    want = float(max(abs(np.linalg.eigvals(m))))
    report = sandwich(mats, TransitionMatrix.complete(1), 12)
    assert report.best_lower == pytest.approx(want, rel=1e-8)
    assert report.best_upper >= want - 1e-12
    assert report.gap <= 0.25


def test_classical_bounds_scalar_identity_is_exact_at_length_one():
    mats = MatrixSet.from_members([3.5 * np.eye(3)])
    report = sandwich(mats, TransitionMatrix.complete(1), 3)
    assert report.best_upper == pytest.approx(3.5, rel=1e-12)
    assert report.best_lower == pytest.approx(3.5, rel=1e-9)


# ------------------------------------------------------- class-chain order


def test_class_chain_complete_alphabet_all_equal():
    rng = np.random.default_rng(31)
    mats = MatrixSet.from_members([rng.uniform(-1, 1, (2, 2)) for _ in range(2)])
    for points in alternative_class_chain(mats, TransitionMatrix.complete(2), 3):
        values = [p.value for p in points]
        assert max(values) - min(values) <= 1e-15


def test_class_chain_golden_mean_all_letters_continue(
    golden_mean_scalars, golden_mean_omega
):
    per, inf, markov, chain = alternative_class_chain(
        golden_mean_scalars, golden_mean_omega, 3
    )[2]
    assert per.value <= inf.value <= markov.value <= chain.value + 1e-15
    assert markov.value == pytest.approx(chain.value, rel=1e-12)


def test_class_chain_exhibits_strict_gap():
    mats = MatrixSet.from_members([np.array([[2.0]]), np.array([[3.0]])])
    om = TransitionMatrix.from_rows([[0, 0], [1, 0]])
    per, inf, markov, chain = alternative_class_chain(mats, om, 2)[1]
    assert chain.value == pytest.approx(SQRT6, rel=1e-12)  # word (1, 2) has no continuation
    assert markov.value == 0.0 and markov.empty_word_set
    assert per.value == 0.0 and inf.value == 0.0


def test_class_chain_rows_come_from_one_sweep(monkeypatch, golden_mean_scalars, golden_mean_omega):
    calls = count_sweeps(monkeypatch)
    rows = alternative_class_chain(golden_mean_scalars, golden_mean_omega, n_max=6)
    assert calls == [6]
    assert [[p.n for p in row] for row in rows] == [[n] * 4 for n in range(1, 7)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**25 - 1))
def test_class_chain_monotone_on_random_instances(size, n, seed):
    rng = np.random.default_rng(seed)
    om = TransitionMatrix.from_rows(random_binary_rows(rng, size))
    mats = MatrixSet.from_members([rng.uniform(-1, 1, (2, 2)) for _ in range(size)])
    values = [p.value for p in alternative_class_chain(mats, om, n)[n - 1]]
    assert all(values[i] <= values[i + 1] * (1 + 1e-12) + 1e-15 for i in range(3))


def test_class_chain_check_slack_is_relative():
    # a doubling at 1e-120 is a violation, however small in absolute terms
    assert not ClassChainCheck(n=1, values=(1e-120, 1e-120, 2e-120, 1e-120)).ok
    assert ClassChainCheck(n=1, values=(1e-120, 1e-120, 2e-120, 2e-120)).ok
    assert ClassChainCheck(n=1, values=(0.0, 0.0, 1.0, 1.0 - 1e-13)).ok


def test_cross_bound_slack_is_relative():
    # a doubling at 1e-300 is a violation, however small in absolute terms
    assert not CrossBound(n=2, chain_value=2e-300, cap=1e-300).ok
    assert CrossBound(n=2, chain_value=1e-300, cap=1e-300).ok
    assert CrossBound(n=2, chain_value=0.0, cap=0.0).ok
    assert CrossBound(n=2, chain_value=1.0 + 1e-13, cap=1.0).ok


def test_lift_equality_tolerances_are_relative(golden_mean_omega):
    # a factor of two at 1e-120 is a failure, however small in absolute terms
    tiny = dict(n=1, norm_lifted=1e-120, norm_constrained=1e-120)
    assert not LiftEqualityCheck(
        n=1, norm_lifted=2e-120, norm_constrained=1e-120,
        spectral_lifted=5e-120, spectral_periodic=1e-120,
    ).passed
    assert not LiftEqualityCheck(**tiny, spectral_lifted=2e-120, spectral_periodic=1e-120).passed
    assert LiftEqualityCheck(**tiny, spectral_lifted=1e-120, spectral_periodic=1e-120).passed
    assert LiftEqualityCheck(n=1, norm_lifted=0.0, norm_constrained=0.0,
                             spectral_lifted=0.0, spectral_periodic=0.0).passed
    # and a genuine instance at that scale still passes
    mats = MatrixSet.from_members([np.array([[2e-120]]), np.array([[3e-120]])])
    assert _lift_check(mats, golden_mean_omega, 2).passed


# ------------------------------------------------------------ verification


def test_full_verification_passes_on_reference_omega(four_letter_omega):
    rng = np.random.default_rng(13)
    mats = MatrixSet.from_members([rng.uniform(-1, 1, (2, 2)) for _ in range(4)])
    outcome = full_verification(mats, four_letter_omega, 4)
    assert outcome.passed
    assert outcome.factor_audit.words_checked > 0


def test_full_verification_fails_a_lifted_spectral_defect_of_1e_8(monkeypatch):
    # beyond twice the kernel tolerance, where the lifted and periodic columns may differ
    instance = load_instance(Path(__file__).resolve().parent / "data" / "sparse-chain.json")
    mats, om = instance.matrices, instance.omega
    exact = radius.spectral_radii

    def skewed(stack):
        radii = exact(stack)
        return radii * (1 + 1e-8) if stack.shape[-1] == om.size * mats.dim else radii

    assert full_verification(mats, om, 3).passed
    monkeypatch.setattr(radius, "spectral_radii", skewed)
    outcome = full_verification(mats, om, 3)
    assert not outcome.passed
    assert all(c.norm_ok for c in outcome.equality_checks)
    assert not any(c.spectral_ok for c in outcome.equality_checks)


@pytest.mark.parametrize(
    "letter, entry, flag",
    [
        (1, (0, 1), "representation_ok"),  # support outside the factor's column
        (3, None, "nonzero_iff_admissible_ok"),  # zeroed: admissible words ending in 3 vanish
        (3, (2, 2), "diagonal_iff_periodic_ok"),  # a self-loop at 3 that omega forbids
    ],
    ids=["off-column", "zeroed", "forbidden-diagonal"],
)
def test_audit_reports_a_corrupted_factor(monkeypatch, four_letter_omega, letter, entry, flag):
    assert audit_factor_structure(four_letter_omega, 3).passed

    def corrupted(omega, index):
        factor = omega_factor(omega, index)
        if index == letter:
            if entry is None:
                factor[:] = 0
            else:
                factor[entry] = 1
        return factor

    monkeypatch.setattr(radius, "omega_factor", corrupted)
    audit = audit_factor_structure(four_letter_omega, 3)
    assert not audit.passed
    assert not getattr(audit, flag)


def test_fixed_length_bounds_are_continuous_in_the_family():
    # fixed-n quantities move continuously with the members: the norm side
    # obeys a telescoping product bound, the spectral side shrinks with the
    # perturbation size (checked across two scales)
    rng = np.random.default_rng(31415)
    for _ in range(6):
        mats, om = random_cyclic_instance(rng, max_letters=3, max_dim=3)
        deltas = [rng.uniform(-1, 1, mats.members[0].shape) for _ in range(mats.size)]

        def perturbed(eps):
            return MatrixSet.from_members(
                [m + eps * d for m, d in zip(mats.members, deltas)]
            )

        eps = 1e-6
        moved = perturbed(eps)
        beta = max(
            max(operator_norm(m) for m in family.members) for family in (mats, moved)
        )
        eps_eff = eps * max(operator_norm(d) for d in deltas)
        base_values, moved_values = _markov_values(mats, om, 4), _markov_values(moved, om, 4)
        for n in (1, 2, 3, 4):
            base_value, moved_value = base_values[n], moved_values[n]
            shift = n * eps_eff * beta ** (n - 1)  # telescoped product movement
            floor = min(base_value, moved_value) ** (n - 1)
            if floor > 0:
                allowed = shift / (n * floor)
            else:
                allowed = shift ** (1.0 / n)  # Hoelder fallback near zero
            assert abs(moved_value - base_value) <= allowed + 1e-12

        for n in (2, 3):
            base_hat = _spectral_point(mats, om, n).value
            coarse = abs(_spectral_point(perturbed(1e-4), om, n).value - base_hat)
            fine = abs(_spectral_point(perturbed(1e-8), om, n).value - base_hat)
            assert fine <= coarse * 0.1 + 1e-6


def test_fekete_power_submultiplicativity():
    rng = np.random.default_rng(2468)
    for _ in range(10):
        mats, om = random_cyclic_instance(rng, max_letters=3, max_dim=2)
        values = _markov_values(mats, om, 7)
        for m in range(1, 7):
            for n in range(1, 8 - m):
                lhs = values[m + n] ** (m + n)
                rhs = values[m] ** m * values[n] ** n
                assert lhs <= rhs * (1 + 1e-12) + 1e-15
