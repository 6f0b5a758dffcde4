"""Energy evaluation, the three QUBO solvers, the annealer's C kernel at every
lane width, and its parallel read blocks."""

import functools
import itertools
import os
import platform
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from triqsvm import anneal
from triqsvm.anneal import (
    AnnealSchedule,
    _anneal_reads,
    brute_force,
    energy,
    greedy_descent,
    presolve,
    simulated_anneal,
)
from triqsvm.datagen import adhoc_generate
from triqsvm.qkernel import FeatureMapSpec, feature_states, gram_from_states
from triqsvm.qubo import QuboMatrix, build_qubo_dual, build_qubo_paper

TOY = QuboMatrix(np.array([[-1.0, 0.0], [0.0, 2.0]]))


def double_loop_energy(q: np.ndarray, alpha: np.ndarray) -> float:
    total = 0.0
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            total += q[i, j] * alpha[i] * alpha[j]
    return total


class TestEnergy:
    def test_empty_selection(self):
        assert energy(TOY, np.zeros(2)) == 0.0

    def test_diagonal_terms(self):
        assert energy(TOY, np.ones(2)) == 1.0

    def test_paper_qubo_worked_example(self):
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        q = build_qubo_paper(k, np.array([1, -1]))
        assert energy(q, np.ones(2)) == -0.5

    def test_exact_match_with_double_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 17))
            q = QuboMatrix(rng.uniform(-1, 1, (n, n)))
            alpha = rng.integers(0, 2, n).astype(float)
            assert energy(q, alpha) == double_loop_energy(q.q, alpha)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            energy(TOY, np.zeros(3))


class TestSimulatedAnneal:
    def test_toy_instance(self):
        result = simulated_anneal(TOY, AnnealSchedule(num_reads=5, sweeps=50, seed=1))
        assert result.best_assignment.tolist() == [1, 0]
        assert result.best_energy == -1.0

    def test_deterministic(self):
        schedule = AnnealSchedule(num_reads=8, sweeps=100, seed=3)
        q = QuboMatrix(np.random.default_rng(4).uniform(-1, 1, (10, 10)))
        a = simulated_anneal(q, schedule)
        b = simulated_anneal(q, schedule)
        assert np.array_equal(a.best_assignment, b.best_assignment)
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.energies, b.energies)

    def test_result_invariants(self):
        q = QuboMatrix(np.random.default_rng(5).uniform(-1, 1, (12, 12)))
        result = simulated_anneal(q, AnnealSchedule(num_reads=6, sweeps=80, seed=6))
        assert result.best_energy == energy(q, result.best_assignment)
        assert result.best_energy == result.energies.min()

    def test_reads_are_order_independent(self):
        # Read r inside a batch must equal a standalone single-read run
        # seeded with seed + r.
        q = QuboMatrix(np.random.default_rng(7).uniform(-1, 1, (9, 9)))
        batch = simulated_anneal(q, AnnealSchedule(num_reads=5, sweeps=60, seed=40))
        for r in range(5):
            single = simulated_anneal(q, AnnealSchedule(num_reads=1, sweeps=60, seed=40 + r))
            assert single.energies[0] == batch.energies[r]

    def test_recorded_best_is_monotone_within_reads(self):
        q = QuboMatrix(np.random.default_rng(8).uniform(-1, 1, (10, 10)))
        _, _, trace, _, _ = _anneal_reads(q, AnnealSchedule(num_reads=4, sweeps=120, seed=9))
        assert np.all(np.diff(trace, axis=1) <= 0.0)

    def test_incremental_energy_matches_recompute(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            q = QuboMatrix(rng.uniform(-1, 1, (15, 15)))
            _, _, _, final_states, running = _anneal_reads(
                q, AnnealSchedule(num_reads=4, sweeps=150, seed=11)
            )
            for state, tracked in zip(final_states, running):
                assert tracked == pytest.approx(energy(q, state), abs=1e-9)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(num_reads=0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=0)
        with pytest.raises(ValueError):
            AnnealSchedule(beta_start=2.0, beta_end=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(beta_start=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 1.0, "1", None, np.float64(2.0), np.int64(-3)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            AnnealSchedule(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), np.uint32(5), 2**70])
    def test_integer_seeds_are_accepted(self, seed):
        schedule = AnnealSchedule(seed=seed)
        assert schedule.seed == seed and type(schedule.seed) is int

    @pytest.mark.parametrize("field", ["num_reads", "sweeps"])
    @pytest.mark.parametrize("value", [2.5, 3.5, float("nan"), 4.0, "4", None, np.float64(4.0),
                                       0, -2, np.int64(0)])
    def test_reads_and_sweeps_must_be_positive_integers(self, field, value):
        # A float once passed and failed with a bare TypeError in the
        # first anneal; the schedule names the field instead.
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            AnnealSchedule(**{field: value})

    @pytest.mark.parametrize("value", [1, 3, np.int64(4), np.uint8(2), np.int32(7)])
    def test_integer_reads_and_sweeps_are_kept_as_ints(self, value):
        schedule = AnnealSchedule(num_reads=value, sweeps=value)
        for got in (schedule.num_reads, schedule.sweeps):
            assert got == value and type(got) is int

    @pytest.mark.parametrize("bounds", [
        {"beta_end": float("inf")},
        {"beta_start": float("inf")},
        {"beta_start": float("nan")},
        {"beta_end": float("nan")},
    ])
    def test_beta_bounds_must_be_finite(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            AnnealSchedule(**bounds)


class TestBruteForce:
    def test_toy_instance(self):
        result = brute_force(TOY)
        assert result.best_assignment.tolist() == [1, 0]
        assert result.best_energy == -1.0

    def test_zero_matrix_tie_break(self):
        result = brute_force(QuboMatrix(np.zeros((4, 4))))
        assert result.best_assignment.tolist() == [0, 0, 0, 0]
        assert result.best_energy == 0.0

    def test_ranks_by_the_energy_it_reports(self):
        # Summed as a matrix product, [1, 0, 0] comes first at -0.1; the
        # left-to-right sum of ``energy`` puts [1, 1, 0] below it.
        q = QuboMatrix(np.array([[-0.1, -0.2, -0.1], [0.1, 0.1, -0.4], [0.3, 0.7, 0.2]]))
        result = brute_force(q)
        assert result.best_assignment.tolist() == [1, 1, 0]
        assert result.best_energy == energy(q, [1, 1, 0]) == -0.10000000000000003
        assert energy(q, [1, 0, 0]) == -0.1

    def test_ties_in_the_reported_energy_take_the_smallest_numeral(self):
        # [1, 0, 0] and [1, 0, 1] tie at -0.4; summed as a matrix product,
        # [1, 0, 1] is an ulp lower.
        q = QuboMatrix(np.array([[-0.4, 0.7, -0.4], [0.2, 0.1, 0.7], [0.3, 0.2, 0.1]]))
        assert energy(q, [1, 0, 0]) == energy(q, [1, 0, 1]) == -0.4
        assert brute_force(q).best_assignment.tolist() == [1, 0, 0]

    def test_picks_the_first_minimum_of_the_enumerated_energies(self):
        # Entries from a small set make rounding ties common.
        rng = np.random.default_rng(0)
        values = [0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.7, -0.4]
        for _ in range(200):
            n = int(rng.integers(3, 9))
            q = QuboMatrix(rng.choice(values, size=(n, n)))
            assignments = list(itertools.product((0, 1), repeat=n))
            energies = [energy(q, a) for a in assignments]
            k = energies.index(min(energies))
            result = brute_force(q)
            assert result.best_assignment.tolist() == list(assignments[k])
            assert result.best_energy == energies[k]

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            brute_force(QuboMatrix(np.zeros((21, 21))))

    def test_agrees_with_long_annealing(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            q = QuboMatrix(rng.uniform(-1, 1, (n, n)))
            exact = brute_force(q)
            annealed = simulated_anneal(q, AnnealSchedule(num_reads=20, sweeps=300, seed=13))
            assert annealed.best_energy == pytest.approx(exact.best_energy, abs=1e-9)


class TestGreedyDescent:
    def test_toy_instance_from_any_start(self):
        for seed in range(6):
            result = greedy_descent(TOY, seed=seed)
            assert result.best_assignment.tolist() == [1, 0]

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            n = 12
            q = QuboMatrix(rng.uniform(-1, 1, (n, n)))
            start = np.random.default_rng(seed).integers(0, 2, n).astype(float)
            result = greedy_descent(q, seed=seed)
            assert result.best_energy <= energy(q, start) + 1e-12

    def test_deterministic(self):
        q = QuboMatrix(np.random.default_rng(15).uniform(-1, 1, (10, 10)))
        a = greedy_descent(q, seed=2)
        b = greedy_descent(q, seed=2)
        assert np.array_equal(a.best_assignment, b.best_assignment)

    def test_annealer_dominates_greedy(self):
        rng = np.random.default_rng(16)
        schedule_wins = 0
        for inst in range(50):
            q = QuboMatrix(rng.uniform(-1, 1, (12, 12)))
            annealed = simulated_anneal(q, AnnealSchedule(num_reads=10, sweeps=200, seed=inst))
            greedy = greedy_descent(q, seed=inst)
            if annealed.best_energy <= greedy.best_energy + 1e-12:
                schedule_wins += 1
        assert schedule_wins >= 45


@pytest.mark.parametrize("solver", ["brute-force", "greedy", "anneal", "anneal-numpy",
                                    "presolve"])
def test_no_variables_give_the_empty_assignment(monkeypatch, solver):
    q = QuboMatrix(np.empty((0, 0)))
    if solver == "anneal-numpy":
        monkeypatch.setattr(anneal, "_kernel", lambda: None)
    result = {
        "brute-force": lambda: brute_force(q),
        "greedy": lambda: greedy_descent(q, seed=3),
        "anneal": lambda: simulated_anneal(q, AnnealSchedule(num_reads=3, sweeps=5)),
        "presolve": lambda: presolve(q).complete(q, None),
    }[solver.removesuffix("-numpy")]()
    assert result.best_assignment.shape == (0,)
    assert result.best_energy == 0.0 and not np.signbit(result.best_energy)


def negative_zero_couplings(n: int, seed: int) -> QuboMatrix:
    """Integer entries in {-1, 0, 1} above the diagonal and -0.0 elsewhere
    off it, so that every zero of the couplings q + q^T off the diagonal is
    -0.0."""
    q = np.triu(np.random.default_rng(seed).integers(-1, 2, (n, n)).astype(float))
    q[q == 0] = -0.0
    return QuboMatrix(q)


def dual_instance(m: int) -> QuboMatrix:
    ds = adhoc_generate(m, 0.0, seed=1)
    spec = FeatureMapSpec(n=2, theta=np.array([0.3, -1.2]))
    return build_qubo_dual(gram_from_states(feature_states(ds.points, spec)), ds.labels)


@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after the test, so that the
    test's environment decides how it loads."""
    anneal._kernel.cache_clear()
    yield
    anneal._kernel.cache_clear()


@pytest.fixture
def needs_compiler():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc' on PATH")


def pcg_words(bit_generator) -> np.ndarray:
    """A PCG64's state and increment as the C draws hold them: state low
    and high 64 bits, then increment low and high."""
    stream = bit_generator.state["state"]
    low = (1 << 64) - 1
    return np.array([stream["state"] & low, stream["state"] >> 64, stream["inc"] & low,
                     stream["inc"] >> 64], dtype=np.uint64)


def lane_widths(kernel) -> list[int]:
    """Every lane width the kernel runs on this CPU, 1 (per-read) first."""
    return [lanes for lanes in anneal._LANE_WIDTHS if lanes <= kernel.lanes]


def draw_widths(kernel) -> list[int]:
    """Every width the draws run on this CPU, 1 (streams in turn) first."""
    return [lanes for lanes in anneal._DRAW_WIDTHS if lanes <= kernel.draw_lanes]


def assert_same_reads(q, schedule, reference, monkeypatch, message=""):
    """_anneal_reads at every lane width and every draw width gives the
    reference's bytes."""
    kernel = anneal._kernel()
    assert kernel is not None
    for lanes in lane_widths(kernel):
        for draw in draw_widths(kernel):
            monkeypatch.setattr(anneal, "_kernel", lambda lanes=lanes, draw=draw:
                                kernel._replace(lanes=lanes, draw_lanes=draw))
            for got, want in zip(_anneal_reads(q, schedule), reference):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), f"{lanes} lanes, draw width {draw}{message}"
    monkeypatch.setattr(anneal, "_kernel", lambda: kernel)


def numpy_reads(q, schedule, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(anneal, "_kernel", lambda: None)
        return _anneal_reads(q, schedule)


# Digests of every kernel entry point's outputs, at every width this CPU
# runs, through the normal build and the build named on the command line.
SANITIZED_DIGESTS = """
import hashlib, itertools, sys
import numpy as np
from triqsvm import anneal
from triqsvm.anneal import AnnealSchedule, _anneal_reads
from triqsvm.qubo import QuboMatrix

def digest(kernel):
    rng = np.random.default_rng(3)
    q = QuboMatrix(rng.uniform(-1, 1, (13, 13)))
    # n = 13 and n = 7 end the lockstep kernel's 4-bit blocks in a last
    # block of 1 and of 3 real bits.
    q7 = QuboMatrix(rng.uniform(-1, 1, (7, 7)))
    parts = []
    anneal._usable_cpus = lambda: 2
    for lanes in [w for w in anneal._LANE_WIDTHS if w <= kernel.lanes]:
        for draw in [w for w in anneal._DRAW_WIDTHS if w <= kernel.draw_lanes]:
            anneal._kernel = lambda: kernel._replace(lanes=lanes, draw_lanes=draw)
            for instance, reads in itertools.product((q, q7), (1, 11)):
                schedule = AnnealSchedule(num_reads=reads, sweeps=250, seed=5)
                parts += [a.tobytes() for a in _anneal_reads(instance, schedule)]
            for streams in range(1, 9):
                pcg = np.array([[rng.integers(2**64, dtype=np.uint64) for _ in range(4)]
                                for _ in range(streams)], dtype=np.uint64)
                for count in (0, 1, 2, 37, 38):
                    out = np.empty((count, streams))
                    anneal._uniforms_c(kernel, draw, pcg, out)
                    parts += [out.tobytes(), pcg.tobytes()]
    # Reads whose seeds cross 2**32, 2**64 and 2**128.
    for seed in (2**32 - 3, 2**64 - 3, 2**128 - 3, 2**200 + 7):
        parts += [a.tobytes() for a in anneal._starts(kernel, seed, 6, 7)]
    states = rng.integers(0, 2, (9, 13)).astype(float)
    parts.append(anneal._energies_c(kernel, q.q, states).tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()

normal, sanitized = anneal._kernel(), anneal._load_kernel(sys.argv[1])
assert normal is not None
print(digest(normal), digest(sanitized))
"""


class TestKernel:
    @pytest.mark.parametrize("make_q, schedule", [
        (lambda: dual_instance(50), AnnealSchedule(num_reads=50, sweeps=1000, seed=1)),
        (lambda: dual_instance(200), AnnealSchedule(num_reads=50, sweeps=200, seed=2)),
        # Integer couplings in {-1, 0, 1}: many flips change the energy by
        # exactly zero; 450 sweeps end in a partial chunk.
        (lambda: QuboMatrix(np.random.default_rng(3).integers(-1, 2, (12, 12)).astype(float)),
         AnnealSchedule(num_reads=20, sweeps=450, seed=4)),
        (lambda: QuboMatrix(np.array([[-0.5]])), AnnealSchedule(num_reads=7, sweeps=300, seed=5)),
        (lambda: dual_instance(30), AnnealSchedule(num_reads=1, sweeps=500, seed=6)),
        # Read counts that are not all multiples of 4 or 8, so that blocks
        # end in reads run one at a time.
        *[(lambda: dual_instance(30), AnnealSchedule(num_reads=reads, sweeps=450, seed=reads))
          for reads in (3, 7, 8, 9, 25, 61)],
        (lambda: QuboMatrix(np.array([[0.25]])), AnnealSchedule(num_reads=9, sweeps=450, seed=7)),
        (lambda: QuboMatrix(np.random.default_rng(8).integers(-1, 2, (12, 12)).astype(float)),
         AnnealSchedule(num_reads=25, sweeps=450, seed=9)),
        (lambda: dual_instance(200), AnnealSchedule(num_reads=9, sweeps=450, seed=10)),
        # n % 4 == 3: the lockstep kernel decides 4 bits a pass, and its
        # last block holds 3 real bits and one zero flip.  The integer
        # instance gives many deltas of exactly zero, in every block.
        (lambda: dual_instance(7), AnnealSchedule(num_reads=20, sweeps=450, seed=11)),
        (lambda: dual_instance(51), AnnealSchedule(num_reads=20, sweeps=450, seed=12)),
        (lambda: QuboMatrix(np.random.default_rng(13).integers(-1, 2, (15, 15)).astype(float)),
         AnnealSchedule(num_reads=20, sweeps=450, seed=13)),
        # Last blocks of 1, 2 and 3 bits whose missing bits add zero flips
        # against rows whose zero couplings are -0.0.
        *[(lambda n=n: negative_zero_couplings(n, 14), AnnealSchedule(num_reads=20, sweeps=450,
                                                                      seed=n))
          for n in (5, 6, 7)],
    ], ids=["dual-50", "dual-200", "integer-12", "n-1", "one-read", "reads-3", "reads-7",
            "reads-8", "reads-9", "reads-25", "reads-61", "n-1-nine-reads",
            "integer-12-25-reads", "dual-200-partial-chunk", "dual-7", "dual-51", "integer-15",
            "negative-zero-5", "negative-zero-6", "negative-zero-7"])
    def test_byte_identical_to_numpy_loop(self, monkeypatch, needs_compiler, make_q, schedule):
        q = make_q()
        assert anneal._kernel() is not None
        assert_same_reads(q, schedule, numpy_reads(q, schedule, monkeypatch), monkeypatch)

    def test_kernel_arguments_are_checked(self, needs_compiler):
        reads, count, n = 2, 3, 4
        kernel = anneal._kernel()
        arrays = [np.zeros(shape) for shape in [(count, n, reads), (count,), (n,), (n, n),
                                                (reads, n), (reads, n), (reads,), (reads,),
                                                (reads, n), (reads, count)]]
        for lanes in lane_widths(kernel):
            anneal._sweeps_c(kernel, lanes, np.zeros(anneal._scratch_size(n, lanes)), 0, *arrays)
        lanes = kernel.lanes
        scratch = np.zeros(anneal._scratch_size(n, lanes))
        for k, bad in [(0, arrays[0].astype(np.float32)), (0, np.zeros((reads, count, n))),
                       (0, np.zeros((count, n, 2 * reads))[:, :, ::2]), (3, np.zeros((n, n)).T),
                       (3, np.zeros((n + 1, n + 1))), (4, np.zeros((2 * reads, n))[::2])]:
            wrong = list(arrays)
            wrong[k] = bad
            with pytest.raises(ValueError, match="C-contiguous float64"):
                anneal._sweeps_c(kernel, lanes, scratch, 0, *wrong)
        for bad in (scratch[:-1], np.zeros(anneal._scratch_size(n + 1, lanes)),
                    scratch.astype(np.float32)):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                anneal._sweeps_c(kernel, lanes, bad, 0, *arrays)
        # Widths the kernel has no body for, and the widths this CPU lacks.
        missing = [0, 2, 3, 16, -8] + [w for w in anneal._LANE_WIDTHS if w > kernel.lanes]
        for bad in missing:
            with pytest.raises(ValueError, match="not available on this CPU"):
                anneal._sweeps_c(kernel, bad, np.zeros(anneal._scratch_size(n, abs(bad))), 0,
                                 *arrays)
        for first in (-1, 1):
            with pytest.raises(ValueError, match="past the schedule"):
                anneal._sweeps_c(kernel, lanes, scratch, first, *arrays)

    @pytest.mark.parametrize("n", [1, 2, 17, 50, 200])
    @pytest.mark.parametrize("kind", ["uniform", "integer", "negative"])
    def test_energies_byte_identical_to_energy(self, needs_compiler, n, kind):
        rng = np.random.default_rng(n)
        qm = {"uniform": lambda: rng.uniform(-1, 1, (n, n)),
              "integer": lambda: rng.integers(-1, 2, (n, n)).astype(float),
              "negative": lambda: -rng.uniform(0.1, 1, (n, n))}[kind]()
        q = QuboMatrix(qm)
        states = np.vstack([rng.integers(0, 2, (20, n)), np.ones(n), np.zeros(n)]).astype(float)
        got = anneal._energies_c(anneal._kernel(), q.q, states)
        want = np.array([energy(q, row) for row in states])
        assert got.tobytes() == want.tobytes()
        if kind == "negative":
            # Every term of the zero row is -0.0: a sum started from 0.0
            # would give +0.0.
            assert np.signbit(got[-1]) and got[-1] == 0.0

    def test_energies_of_no_rows_and_no_variables(self, needs_compiler):
        kernel = anneal._kernel()
        assert anneal._energies_c(kernel, np.ones((3, 3)), np.empty((0, 3))).shape == (0,)
        got = anneal._energies_c(kernel, np.empty((0, 0)), np.empty((2, 0)))
        assert got.tobytes() == np.array([energy(QuboMatrix(np.empty((0, 0))), [])] * 2).tobytes()

    def test_read_only_arrays_are_passed_by_address(self, needs_compiler):
        # A QuboMatrix keeps a read-only array as given; its address is not
        # read through the buffer protocol, which needs a writable array.
        qm = np.random.default_rng(20).uniform(-1, 1, (6, 6))
        states = np.random.default_rng(21).integers(0, 2, (5, 6)).astype(float)
        want = anneal._energies_c(anneal._kernel(), qm, states)
        qm.flags.writeable = states.flags.writeable = False
        got = anneal._energies_c(anneal._kernel(), qm, states)
        assert got.tobytes() == want.tobytes()

    def test_read_only_outputs_are_refused(self, needs_compiler):
        # Each array the C code writes must be writeable: a read-only one
        # is refused before the kernel runs, so it keeps its bytes.
        kernel = anneal._kernel()
        reads, count, n = 2, 3, 4
        arrays = [np.ones(shape) for shape in [(count, n, reads), (count,), (n,), (n, n),
                                               (reads, n), (reads, n), (reads,), (reads,),
                                               (reads, n), (reads, count)]]
        scratch = np.zeros(anneal._scratch_size(n, kernel.lanes))
        pcg = np.vstack([pcg_words(np.random.PCG64(seed)) for seed in range(reads)])
        out = np.zeros((5, reads))
        cases = [((pcg, out), lambda: anneal._uniforms_c(kernel, kernel.draw_lanes, pcg, out)),
                 ((scratch, *arrays[4:]),
                  lambda: anneal._sweeps_c(kernel, kernel.lanes, scratch, 0, *arrays))]
        for written, call in cases:
            for array in written:
                before = array.tobytes()
                array.flags.writeable = False
                with pytest.raises(ValueError, match="writeable"):
                    call()
                assert array.tobytes() == before
                array.flags.writeable = True
        # Read-only inputs stay accepted.
        for array in arrays[:4]:
            array.flags.writeable = False
        anneal._sweeps_c(kernel, kernel.lanes, scratch, 0, *arrays)

    def test_energies_arguments_are_checked(self, needs_compiler):
        kernel = anneal._kernel()
        n = 4
        qm, states = np.zeros((n, n)), np.zeros((3, n))
        for bad_q, bad_states in [(qm.astype(np.float32), states), (qm, states.astype(np.float32)),
                                  (np.zeros((n, n + 1)), states), (qm, np.zeros(n)),
                                  (np.zeros((n, 2 * n))[:, ::2], states),
                                  (qm, np.zeros((6, n))[::2]), (qm, np.zeros((3, n + 1)))]:
            with pytest.raises(ValueError, match="C-contiguous float64"):
                anneal._energies_c(kernel, bad_q, bad_states)

    @pytest.mark.parametrize("count", [0, 1, 37, 10_000])
    def test_uniforms_byte_identical_to_generator_random(self, needs_compiler, count):
        kernel = anneal._kernel()
        for lanes in draw_widths(kernel):
            for streams in range(1, 9):
                seeds = range(100 * streams, 100 * streams + streams)
                pcg = np.vstack([pcg_words(np.random.PCG64(seed)) for seed in seeds])
                generators = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
                # Successive calls continue each stream where the last one
                # left it; row k holds every stream's k-th draw.
                for _ in range(3):
                    out = np.empty((count, streams))
                    anneal._uniforms_c(kernel, lanes, pcg, out)
                    want = np.stack([g.random(count) for g in generators], axis=1)
                    assert out.tobytes() == want.tobytes(), f"width {lanes}, {streams} streams"
                    assert pcg.tolist() == [pcg_words(g.bit_generator).tolist()
                                            for g in generators]

    def test_uniforms_arguments_are_checked(self, needs_compiler):
        kernel = anneal._kernel()
        streams, count = 2, 5
        pcg = np.vstack([pcg_words(np.random.PCG64(s)) for s in range(streams)])
        for lanes in draw_widths(kernel):
            anneal._uniforms_c(kernel, lanes, pcg, np.empty((count, streams)))
        lanes = kernel.draw_lanes
        for bad in [pcg.astype(np.int64), pcg.astype(np.float64), pcg[:, :3].copy(),
                    np.vstack([pcg, pcg])[::2], np.vstack([pcg, pcg])]:
            with pytest.raises(ValueError, match="C-contiguous uint64"):
                anneal._uniforms_c(kernel, lanes, bad, np.empty((count, streams)))
        for bad_out in [np.empty((count, streams), dtype=np.float32),
                        np.empty((count, 2 * streams))[:, ::2]]:
            with pytest.raises(ValueError, match="C-contiguous float64"):
                anneal._uniforms_c(kernel, lanes, pcg, bad_out)
        # Stream counts the C code has no room for.
        for bad in [0, 9, 16]:
            words = np.zeros((bad, 4), dtype=np.uint64)
            with pytest.raises(ValueError, match="streams"):
                anneal._uniforms_c(kernel, lanes, words, np.empty((count, bad)))
        # Widths the draws have no body for, and the widths this CPU lacks.
        missing = [0, 2, 4, 16, -8] + [w for w in anneal._DRAW_WIDTHS if w > kernel.draw_lanes]
        for bad in missing:
            with pytest.raises(ValueError, match="not available on this CPU"):
                anneal._uniforms_c(kernel, bad, pcg, np.empty((count, streams)))

    def test_starts_match_fresh_generators(self, needs_compiler):
        kernel = anneal._kernel()
        # Reads 0-2 of 2**32 - 3 are seeded with one 32-bit word and reads
        # 3-5 with two; 2**200 + 7 has more words than SeedSequence's pool
        # of 4.
        for seed, reads in [(0, 5), (40, 5), (2**32 - 3, 6), (2**64 + 3, 4), (10**30, 3),
                            (2**200 + 7, 3)]:
            for n in (1, 2, 7, 13, 50):
                bits, pcg = anneal._starts(kernel, seed, reads, n)
                assert bits.dtype == np.float64 and pcg.dtype == np.uint64
                assert bits.shape == (reads, n) and pcg.shape == (reads, 4)
                for r in range(reads):
                    rng = np.random.default_rng(seed + r)
                    want = rng.integers(0, 2, size=n).astype(float)
                    assert bits[r].tobytes() == want.tobytes(), f"seed {seed} + {r}, n {n}"
                    assert pcg[r].tolist() == pcg_words(rng.bit_generator).tolist()

    def test_numpy_integer_seed_gives_the_int_seeds_reads(self, monkeypatch, needs_compiler):
        # np.uint32(2**32 - 1) + 1 wraps to 0.  The schedule keeps the seed
        # as a Python int, so read 1 is seeded 2**32 on both paths.
        q = dual_instance(20)
        as_numpy = AnnealSchedule(num_reads=3, sweeps=200, seed=np.uint32(2**32 - 1))
        as_int = AnnealSchedule(num_reads=3, sweeps=200, seed=2**32 - 1)
        reference = numpy_reads(q, as_int, monkeypatch)
        for run in (numpy_reads(q, as_numpy, monkeypatch), _anneal_reads(q, as_numpy)):
            for got, want in zip(run, reference):
                assert got.tobytes() == want.tobytes()

    def test_compiles_without_warnings(self, tmp_path, needs_compiler):
        proc = subprocess.run(["cc", *anneal._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
                               str(anneal._KERNEL_SOURCE), "-o", str(tmp_path / "kernel.so")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_undefined_behaviour_sanitizer_finds_nothing(self, tmp_path, needs_compiler):
        # Every entry point, at every width this CPU runs, through a build
        # that aborts on the first undefined behaviour, must give the
        # normal build's bytes.
        self.assert_sanitized_build_agrees(
            tmp_path, ["-fsanitize=undefined", "-fno-sanitize-recover=all"], {})

    def test_address_sanitizer_finds_nothing(self, tmp_path, needs_compiler):
        # The same runs through a build that aborts on the first read or
        # write outside an array, which the UBSan build cannot see.  Python
        # itself is not built with ASan, so its runtime is preloaded.
        runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                                 text=True, timeout=60).stdout.strip()
        if not os.path.isabs(runtime):
            pytest.skip("cc has no AddressSanitizer runtime")
        self.assert_sanitized_build_agrees(
            tmp_path, ["-fsanitize=address", "-fno-omit-frame-pointer"],
            {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"})

    @staticmethod
    def assert_sanitized_build_agrees(tmp_path, flags, env):
        """Build the kernel with ``flags`` and run the digest script in a
        subprocess with ``env`` added, so that an abort cannot take the
        test process with it; the sanitized build must give the normal
        build's digest."""
        library = tmp_path / "sanitized.so"
        proc = subprocess.run(["cc", *anneal._KERNEL_FLAGS, *flags, str(anneal._KERNEL_SOURCE),
                               "-o", str(library)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run([sys.executable, "-c", SANITIZED_DIGESTS, str(library)],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, **env})
        assert proc.returncode == 0, proc.stderr
        assert "runtime error" not in proc.stderr, proc.stderr
        normal, sanitized = proc.stdout.split()
        assert sanitized == normal

    def test_near_the_sum_bound_every_path_agrees(self, monkeypatch, needs_compiler):
        # sum |q| = 1e306, a tenth of the bound QuboMatrix sets: fields and
        # energies reach about 1e306, and the numpy loop and the kernel
        # still give the same bytes.  Presolve fixes 4 variables, and the
        # QuboMatrix of the other 5 is accepted.
        qm = np.random.default_rng(7).normal(size=(9, 9))
        q = QuboMatrix(qm * (1e306 / np.abs(qm).sum()))
        schedule = AnnealSchedule(num_reads=9, sweeps=20, seed=2)
        assert_same_reads(q, schedule, numpy_reads(q, schedule, monkeypatch), monkeypatch)
        assert presolve(q).residual.n == 5

    def test_delta_equal_to_threshold_is_rejected_at_every_width(self, needs_compiler):
        # The threshold is the quotient log(u) / -beta, which has the bits
        # of -log(u) / beta.  For these values -log(u) * (1 / beta) rounds
        # above it, so a kernel that multiplied
        # by 1 / beta, or compared with <=, would accept a flip whose energy
        # change equals the quotient.
        rng = np.random.default_rng(19)
        while True:
            log_u, beta = rng.uniform(0.1, 5.0, 2)
            if log_u * (1.0 / beta) > log_u / beta:
                break
        # With no couplings every bit's delta equals its threshold; n = 5
        # reaches a full 4-bit block of the lockstep kernel and a last block
        # of 1 real bit.
        kernel = anneal._kernel()
        reads = 9
        for n, lanes in itertools.product((1, 5), lane_widths(kernel)):
            runs = []
            for run in (anneal._sweeps_numpy, functools.partial(
                    anneal._sweeps_c, kernel, lanes, np.zeros(anneal._scratch_size(n, lanes)))):
                # The buffer holds log(u), and the threshold is log(u) / -beta.
                arrays = [np.full((1, n, reads), -log_u), np.array([beta]),
                          np.full(n, log_u / beta), np.zeros((n, n)), np.zeros((reads, n)),
                          np.zeros((reads, n)), np.zeros(reads), np.zeros(reads),
                          np.zeros((reads, n)), np.zeros((reads, 1))]
                run(0, *arrays)
                runs.append(arrays)
            assert runs[0][4].tolist() == [[0.0] * n] * reads
            for got, want in zip(*runs):
                assert got.tobytes() == want.tobytes(), f"n = {n}, {lanes} lanes"

    def test_lanes_follow_the_cpu(self, needs_compiler):
        flags = set()
        if os.path.exists("/proc/cpuinfo"):
            with open("/proc/cpuinfo") as info:
                for line in info:
                    if line.startswith("flags"):
                        flags = set(line.split(":", 1)[1].split())
                        break
        if not flags or platform.machine() not in ("x86_64", "AMD64"):
            pytest.skip("CPU flags are read from /proc/cpuinfo on x86-64")
        # The 4-lane field update runs on FMA instructions.
        widest = 1
        if {"avx2", "avx512f"} <= flags:
            widest = 8
        elif {"avx2", "fma"} <= flags:
            widest = 4
        assert anneal._kernel().lanes == widest
        # The vector draws convert with AVX-512DQ's vcvtqq2pd.
        assert anneal._kernel().draw_lanes == (8 if {"avx512f", "avx512dq"} <= flags else 1)

    def test_reads_run_at_the_widest_width(self, monkeypatch, needs_compiler):
        kernel = anneal._kernel()
        sweeps_c, uniforms_c = anneal._sweeps_c, anneal._uniforms_c
        used, drawn = [], []

        def record(loaded, lanes, *args):
            used.append(lanes)
            sweeps_c(loaded, lanes, *args)

        def record_draws(loaded, lanes, pcg, out):
            drawn.append((out.shape[1], lanes))
            uniforms_c(loaded, lanes, pcg, out)

        monkeypatch.setattr(anneal, "_sweeps_c", record)
        monkeypatch.setattr(anneal, "_uniforms_c", record_draws)
        monkeypatch.setattr(anneal, "_usable_cpus", lambda: 2)
        simulated_anneal(dual_instance(30), AnnealSchedule(num_reads=20, sweeps=450, seed=3))
        assert used and set(used) == {kernel.lanes}
        # Blocks of 10 reads: a group of 8 at the widest draw width, and one
        # of 2, which draws faster in turn.
        assert sorted(set(drawn)) == [(2, 1), (8, kernel.draw_lanes)]

    def test_compiles_into_cache_and_reloads_without_compiler_run(
            self, monkeypatch, tmp_path, needs_compiler, fresh_kernel):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert anneal._kernel() is not None
        cache = tmp_path / "triqsvm"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        assert [p.suffix for p in cache.iterdir()] == [".so"]

        def no_compiler_run(*args, **kwargs):
            raise AssertionError("the cached kernel was compiled again")

        anneal._kernel.cache_clear()
        monkeypatch.setattr(anneal.subprocess, "run", no_compiler_run)
        assert anneal._kernel() is not None

    def test_without_compiler_warns_once_and_matches(self, monkeypatch, tmp_path,
                                                     needs_compiler, fresh_kernel):
        q = QuboMatrix(np.random.default_rng(17).uniform(-1, 1, (15, 15)))
        schedule = AnnealSchedule(num_reads=6, sweeps=120, seed=18)
        compiled = simulated_anneal(q, schedule)
        anneal._kernel.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", "")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = simulated_anneal(q, schedule)
            simulated_anneal(q, schedule)
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
            "annealer kernel unavailable, using the numpy loop: no C compiler 'cc' on PATH"
        ]
        assert fallback.best_assignment.tolist() == compiled.best_assignment.tolist()
        assert fallback.best_energy == compiled.best_energy
        assert fallback.energies.tobytes() == compiled.energies.tobytes()

    def test_import_compiles_nothing(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
        script = "import threading, triqsvm, triqsvm.cli; print(threading.active_count())"
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True, timeout=120)
        assert not (tmp_path / "triqsvm").exists()
        assert result.stdout.strip() == "1"

    def test_concurrent_first_compiles(self, tmp_path, needs_compiler):
        script = (
            "import numpy as np\n"
            "from triqsvm import anneal\n"
            "from triqsvm.qubo import QuboMatrix\n"
            "assert anneal._kernel() is not None\n"
            "q = QuboMatrix(np.random.default_rng(0).uniform(-1, 1, (20, 20)))\n"
            "r = anneal.simulated_anneal(q, anneal.AnnealSchedule(num_reads=4, sweeps=100))\n"
            "print(r.best_assignment.tolist(), r.energies.tobytes().hex())\n"
        )
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for _ in range(4)]
        outputs = []
        try:
            for proc in procs:
                out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
                assert "RuntimeWarning" not in err, err
                outputs.append(out)
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        assert len(set(outputs)) == 1 and outputs[0]
        assert [p.suffix for p in (tmp_path / "triqsvm").iterdir()] == [".so"]


class TestParallelReads:
    @pytest.mark.parametrize("make_q, schedule", [
        (lambda: dual_instance(50), AnnealSchedule(num_reads=50, sweeps=1000, seed=1)),
        # Seven reads split unevenly over 2, 3 and 64 workers; 450 sweeps
        # end in a partial chunk.
        (lambda: dual_instance(30), AnnealSchedule(num_reads=7, sweeps=450, seed=8)),
        # Blocks of 12 and 13, or 8, 8 and 9 reads: full lane groups plus
        # a per-read remainder in the same block.
        (lambda: dual_instance(30), AnnealSchedule(num_reads=25, sweeps=450, seed=11)),
    ], ids=["dual-50", "seven-reads", "twenty-five-reads"])
    def test_worker_count_does_not_change_results(self, monkeypatch, needs_compiler,
                                                   make_q, schedule):
        q = make_q()
        reference = numpy_reads(q, schedule, monkeypatch)
        assert anneal._kernel() is not None
        for workers in (1, 2, 3, 7, 64):
            monkeypatch.setattr(anneal, "_usable_cpus", lambda workers=workers: workers)
            assert_same_reads(q, schedule, reference, monkeypatch, f", {workers} workers")

    def test_blocks_on_different_chunk_sizes_keep_their_draws(self, monkeypatch,
                                                                needs_compiler):
        # 9 reads in blocks of 4 and 5, 450 sweeps in chunks of 200, 200
        # and 50.  The calling thread's block holds its first chunk's draws
        # until the pool thread's block has drawn and run its partial last
        # chunk, which must not have written over them.
        q = dual_instance(30)
        schedule = AnnealSchedule(num_reads=9, sweeps=450, seed=12)
        reference = numpy_reads(q, schedule, monkeypatch)
        sweeps_c = anneal._sweeps_c
        last_chunk_done = threading.Event()

        def hold_first_chunk(kernel, lanes, scratch, first, *rest):
            if threading.current_thread() is threading.main_thread():
                if first == 0:
                    assert last_chunk_done.wait(timeout=60)
                sweeps_c(kernel, lanes, scratch, first, *rest)
            else:
                sweeps_c(kernel, lanes, scratch, first, *rest)
                if first == 400:
                    last_chunk_done.set()

        assert anneal._kernel() is not None
        monkeypatch.setattr(anneal, "_sweeps_c", hold_first_chunk)
        monkeypatch.setattr(anneal, "_usable_cpus", lambda: 2)
        for got, want in zip(_anneal_reads(q, schedule), reference):
            assert got.tobytes() == want.tobytes()

    def test_reads_run_one_lane_group_at_a_time(self, monkeypatch, needs_compiler):
        # Blocks of 25 reads, 450 sweeps in chunks of 200, 200 and 50.
        kernel = anneal._kernel()
        schedule = AnnealSchedule(num_reads=50, sweeps=450, seed=13)
        sweeps_c = anneal._sweeps_c
        chunks = [[] for _ in range(schedule.num_reads)]

        def record(loaded, lanes, scratch, first, log_u, betas, diag, coupling, state,
                   field, running, best_energy, best_state, trace):
            # Lane-major draws: (count, n, reads).
            assert log_u.shape[2] <= anneal._MAX_STREAMS and lanes == kernel.lanes
            assert log_u.shape[1:] == (30, len(trace))
            # The group's first read, from where its rows start in the trace.
            g = (trace.ctypes.data - trace.base.ctypes.data) // trace.strides[0]
            for r in range(g, g + log_u.shape[2]):
                chunks[r].append((first, log_u.shape[0]))
            sweeps_c(loaded, lanes, scratch, first, log_u, betas, diag, coupling, state,
                     field, running, best_energy, best_state, trace)

        monkeypatch.setattr(anneal, "_sweeps_c", record)
        monkeypatch.setattr(anneal, "_usable_cpus", lambda: 2)
        simulated_anneal(dual_instance(30), schedule)
        assert chunks == [[(0, 200), (200, 200), (400, 50)]] * schedule.num_reads

    @pytest.mark.parametrize("lanes", [1, 4])
    def test_narrow_lanes_still_draw_eight_streams_a_call(self, monkeypatch, needs_compiler,
                                                          lanes):
        # The draws need no SIMD: on CPUs with 4 lanes or none, one call
        # still draws up to 8 of a block's streams, as the lanes of one
        # vector or in turn.
        kernel = anneal._kernel()
        q = dual_instance(30)
        schedule = AnnealSchedule(num_reads=21, sweeps=250, seed=16)
        reference = numpy_reads(q, schedule, monkeypatch)
        uniforms_c = anneal._uniforms_c
        monkeypatch.setattr(anneal, "_usable_cpus", lambda: 2)
        for draw_lanes in draw_widths(kernel):
            streams = []

            def record(loaded, width, pcg, out):
                assert width == (draw_lanes if out.shape[1] > 4 else 1)
                streams.append(out.shape[1])
                uniforms_c(loaded, width, pcg, out)

            monkeypatch.setattr(anneal, "_kernel", lambda draw_lanes=draw_lanes:
                                kernel._replace(lanes=lanes, draw_lanes=draw_lanes))
            monkeypatch.setattr(anneal, "_uniforms_c", record)
            for got, want in zip(_anneal_reads(q, schedule), reference):
                assert got.tobytes() == want.tobytes(), f"draw width {draw_lanes}"
            # Blocks of 10 and 11 reads: groups of 8 and the rest, two
            # chunks each.
            assert sorted(streams) == sorted([8, 8, 2, 2, 8, 8, 3, 3])

    def test_draw_memory_does_not_grow_with_reads(self, monkeypatch, needs_compiler):
        # One chunk's draws for every read at once would take
        # 144 * 200 * 50 * 8 B = 11.5 MB more at 160 reads than at 16.  What
        # still grows with the reads (the trace, the states and fields, and
        # the PCG64 words) took about 0.5 MB.
        q = dual_instance(50)
        assert anneal._kernel() is not None
        monkeypatch.setattr(anneal, "_usable_cpus", lambda: 2)
        peaks = []
        for reads in (16, 160):
            tracemalloc.start()
            try:
                _anneal_reads(q, AnnealSchedule(num_reads=reads, sweeps=200, seed=14))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2_000_000

    def test_worker_error_propagates_and_threads_are_joined(self, monkeypatch, needs_compiler):
        sweeps_c = anneal._sweeps_c

        def fail_off_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("block failed in a pool thread")
            sweeps_c(*args)

        assert anneal._kernel() is not None
        monkeypatch.setattr(anneal, "_sweeps_c", fail_off_main_thread)
        monkeypatch.setattr(anneal, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed in a pool thread"):
            simulated_anneal(dual_instance(30), AnnealSchedule(num_reads=6, sweeps=450, seed=9))
        assert threading.active_count() == before

    @pytest.mark.parametrize("serial", ["numpy-loop", "one-cpu"])
    def test_serial_paths_open_no_pool(self, monkeypatch, needs_compiler, serial):
        q = dual_instance(30)
        schedule = AnnealSchedule(num_reads=9, sweeps=450, seed=10)
        monkeypatch.setattr(anneal, "_usable_cpus", lambda: 2)
        expected = simulated_anneal(q, schedule)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was opened")

        monkeypatch.setattr(anneal.concurrent.futures, "ThreadPoolExecutor", no_pool)
        if serial == "numpy-loop":
            monkeypatch.setattr(anneal, "_kernel", lambda: None)
        else:
            monkeypatch.setattr(anneal, "_usable_cpus", lambda: 1)
        got = simulated_anneal(q, schedule)
        assert got.best_assignment.tolist() == expected.best_assignment.tolist()
        assert got.best_energy == expected.best_energy
        assert got.energies.tobytes() == expected.energies.tobytes()
