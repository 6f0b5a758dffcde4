"""Low-energy sampling of QUBO instances.

``simulated_anneal`` is the annealer stand-in: multi-read single-bit-flip
Metropolis with a geometric inverse-temperature ladder.  ``brute_force``
enumerates every assignment (the oracle for small instances) and
``greedy_descent`` is the cheap classical baseline.  ``presolve`` fixes the
variables that first-order persistency settles for every optimum and
leaves the rest as a smaller instance for a sampler.

Each read r draws its own PCG64 stream seeded with ``seed + r``, so reads
are order-independent and the sampler is deterministic per (instance,
schedule).

The Metropolis sweeps run in a small C kernel (``_metropolis.c``),
compiled with the system ``cc`` on first use into a per-user cache and
loaded with ctypes.  On x86-64 CPUs with AVX2 it runs the reads in
lockstep, one read per SIMD lane, as the numpy loop does: 8 lanes with
AVX-512F and 4 with AVX2, the widest the CPU offers.  The reads left
after the last full group of lanes, and every read on other CPUs, run
one at a time.  The kernel also gives the reads' exact start and best
energies, summed as ``energy`` sums them; seeds the reads, their start
bits and PCG64 streams as ``default_rng(seed + r)`` gives them, in one
call; and draws the reads' uniforms as numpy's PCG64 ``Generator.random``
does, up to 8 streams a call: as the lanes of one AVX-512 vector where
the CPU has AVX-512F and DQ and the call more than 4 streams, and in turn
otherwise.  Every path is bit-identical to the numpy loop, its own
generators and ``energy``, which stay as the reference and are the path
taken, after one RuntimeWarning, when the kernel cannot be built or
loaded.

The draws are lane-major: a group's chunk of draws is ``(count, n,
reads)``, so the group's thresholds for one step lie side by side and the
lockstep kernel loads them as one vector.  The buffer keeps log(u), and
both loops take the threshold as log(u) / -beta, which has the bits of
-log(u) / beta.

With the kernel, the reads are split into contiguous blocks, one per
usable CPU, and each block runs in its own thread: the kernel calls,
draws included, and the log all release the GIL.  A block runs its reads
one group at a time (8 reads, fewer in its last group), each group
through the whole schedule, and the kernel runs a group ``lanes`` reads
at a time.  Blocks and groups share no read and no random stream, so any
block count gives the same bits.  The draws of one chunk of sweeps for
one group of each block fill a buffer of at most
``workers * 8 * min(200, sweeps) * n`` doubles, however many reads
there are, and each block owns one slot of it.  That buffer, the
kernel's scratch and the streams the draws advance are made before the
blocks start, so the read threads allocate no arrays.  The numpy loop
holds the GIL and runs as one block and one group of all reads, with
``reads * min(200, sweeps) * n`` doubles of draws.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .qkernel import integer_field
from .qubo import QuboMatrix

BRUTE_FORCE_MAX = 20

# Sweeps whose uniforms are drawn per chunk; each read's stream is generated
# sequentially, so the chunk size cannot change results.
_SWEEP_CHUNK = 200

_KERNEL_SOURCE = Path(__file__).with_name("_metropolis.c")
# No fused multiply-add (some targets contract a * b + c by default) and no
# fast-math or -march=native: the kernel must round exactly as numpy does.
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
# Reads per lockstep group the kernel can run; 1 is the per-read loop.
_LANE_WIDTHS = (1, 4, 8)
# Streams per vector ``uniforms`` can step; 1 steps them in turn.
_DRAW_WIDTHS = (1, 8)
_FLOAT64 = np.dtype(np.float64)
_UINT64 = np.dtype(np.uint64)
_UINT32 = np.dtype(np.uint32)
# Most PCG64 streams one ``uniforms`` call draws.
_MAX_STREAMS = 8


@dataclass(frozen=True)
class AnnealSchedule:
    """Annealing parameters: restarts, sweeps per restart and the inverse
    temperature range of the geometric ladder."""

    num_reads: int = 50
    sweeps: int = 1000
    beta_start: float = 0.1
    beta_end: float = 10.0
    seed: int = 0

    def __post_init__(self):
        # Python ints: ``seed + r`` on a numpy integer can wrap around.
        for name, least in (("num_reads", 1), ("sweeps", 1), ("seed", 0)):
            integer_field(self, name, least)
        if not (math.isfinite(self.beta_start) and math.isfinite(self.beta_end)):
            raise ValueError("beta_start and beta_end must be finite")
        if not 0.0 < self.beta_start < self.beta_end:
            raise ValueError("need 0 < beta_start < beta_end")


@dataclass
class SampleResult:
    """Best assignment found, its energy, and the per-read best energies."""

    best_assignment: np.ndarray
    best_energy: float
    energies: np.ndarray

    def __post_init__(self):
        self.best_assignment = np.asarray(self.best_assignment, dtype=int)
        self.energies = np.asarray(self.energies, dtype=float)


def energy(q: QuboMatrix, alpha) -> float:
    """E(alpha) = sum_ij q[i][j] alpha_i alpha_j.

    Accumulated strictly left to right in row-major order via cumsum (sum
    would use pairwise reduction), so the result matches a plain double
    loop bit for bit on binary assignments.
    """
    qm = q.q
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (qm.shape[0],):
        raise ValueError(f"assignment length {alpha.shape} does not match size {qm.shape[0]}")
    terms = (qm * np.outer(alpha, alpha)).ravel()
    if terms.size == 0:
        return 0.0
    return float(np.cumsum(terms)[-1])


def _coupling(qm: np.ndarray) -> np.ndarray:
    """c = q + q^T with a zero diagonal: flipping bit i changes the energy
    by +-(q_ii + sum_j c_ij x_j)."""
    coupling = qm + qm.T
    np.fill_diagonal(coupling, 0.0)
    return coupling


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = Path.home() / ".cache"
    return Path(base) / "triqsvm"


def _build_kernel() -> Path:
    """Path of the compiled kernel, compiling it into the cache unless a
    library for the same source, flags, compiler and machine is there."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")
    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_KERNEL_FLAGS).encode(), cc.encode(), platform.machine().encode()]
    )).hexdigest()[:16]
    cache = _cache_dir()
    library = cache / f"metropolis-{key}.so"
    if library.exists():
        return library
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    # Compile to a private name and rename into place, so processes that
    # compile at once never load a half-written library.
    fd, partial = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_KERNEL_FLAGS, "-x", "c", "-", "-o", partial],
                              input=source, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise OSError(f"{cc} exited with {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace').strip()}")
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return library


class _Kernel(NamedTuple):
    """The loaded Metropolis kernel and the widest lane width it runs on
    this CPU, the exact energies of whole states, the PCG64 draws and the
    widest width they run, and the reads' seeding."""

    metropolis: Callable[..., None]
    lanes: int
    energies: Callable[..., None]
    uniforms: Callable[..., None]
    draw_lanes: int
    starts: Callable[..., None]


def _load_kernel(path: Path) -> _Kernel:
    """The kernel library at ``path``, its entry points typed for ctypes."""
    library = ctypes.CDLL(str(path))
    signatures = {"metropolis": (6, 11), "energies": (2, 3), "uniforms": (3, 2),
                  "starts": (3, 3), "metropolis_lanes": (0, 0), "uniforms_lanes": (0, 0)}
    for name, (longs, pointers) in signatures.items():
        function = getattr(library, name)
        function.argtypes = [ctypes.c_long] * longs + [ctypes.c_void_p] * pointers
        function.restype = ctypes.c_long if name.endswith("_lanes") else None
    return _Kernel(library.metropolis, library.metropolis_lanes(), library.energies,
                   library.uniforms, library.uniforms_lanes(), library.starts)


@functools.cache
def _kernel() -> _Kernel | None:
    """The compiled Metropolis kernel, or None when it cannot be built or
    loaded; the reason is given once, as a RuntimeWarning."""
    try:
        return _load_kernel(_build_kernel())
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(f"annealer kernel unavailable, using the numpy loop: {exc}",
                      RuntimeWarning, stacklevel=3)
        return None


def _scratch_size(n: int, lanes: int) -> int:
    """Doubles of lane-transposed scratch the kernel needs per block: x,
    f and best states, plus one vector of slack for alignment."""
    return (3 * n + 1) * lanes


def _pointers(read, written) -> list:
    """Addresses of the arrays the kernel reads, then of those it writes,
    each given with its shape and, unless it is float64, its dtype; every
    array must be C-contiguous of that dtype and shape, and writeable if
    the kernel writes it."""
    if not all(array.flags.writeable for array, *_ in written):
        raise ValueError("kernel output must be a writeable array")
    pointers = []
    addressof, view = ctypes.addressof, ctypes.c_char.from_buffer
    for array, shape, *dtype in (*read, *written):
        dtype = dtype[0] if dtype else _FLOAT64
        if array.dtype != dtype or array.shape != shape or not array.flags.c_contiguous:
            raise ValueError(f"kernel argument must be C-contiguous {dtype} of shape {shape}")
        try:
            # A ctypes view made through the buffer protocol gives the
            # address about three times faster than ``ndarray.ctypes``.
            pointers.append(addressof(view(array)))
        except (TypeError, ValueError):  # a read-only or an empty array
            pointers.append(array.ctypes.data)
    return pointers


def _energies_c(kernel, qm: np.ndarray, states: np.ndarray) -> np.ndarray:
    """energy(q, row) for every row of ``states`` through the C kernel, bit
    for bit."""
    rows, n = len(states), len(qm)
    out = np.empty(rows)
    kernel.energies(rows, n, *_pointers(((qm, (n, n)), (states, (rows, n))), ((out, (rows,)),)))
    return out


def _uniforms_c(kernel, lanes: int, pcg: np.ndarray, out: np.ndarray) -> None:
    """Fill each column of ``out`` with the next uniforms of the PCG64
    stream in the same row of ``pcg`` (state low, high, inc low, high)
    through the C kernel, ``lanes`` streams to a vector (1 = in turn), and
    advance the states in place, bit for bit as ``Generator.random``: row
    k of ``out`` holds every stream's k-th draw."""
    count, streams = out.shape
    if lanes not in _DRAW_WIDTHS or lanes > kernel.draw_lanes:
        raise ValueError(f"draw width {lanes} is not available on this CPU "
                         f"(widths {[w for w in _DRAW_WIDTHS if w <= kernel.draw_lanes]})")
    if not 1 <= streams <= _MAX_STREAMS:
        raise ValueError(f"{streams} streams: the kernel draws 1 to {_MAX_STREAMS} at a time")
    kernel.uniforms(lanes, streams, count,
                    *_pointers((), ((pcg, (streams, 4), _UINT64), (out, (count, streams)))))


def _draw_width(kernel, streams: int) -> int:
    """The width ``uniforms`` draws a group of ``streams`` at: 4 streams or
    fewer draw faster in turn than as the lanes of a mostly idle vector."""
    return kernel.draw_lanes if streams > _MAX_STREAMS // 2 else 1


def _starts(kernel, seed: int, reads: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each read's start bits, ``(reads, n)`` floats, and its PCG64 stream
    after them, ``(reads, 4)`` uint64 as ``_uniforms_c`` reads it, from
    one C call.  Read r's stream is ``Generator(PCG64(seed + r))``, the
    stream ``default_rng(seed + r)`` gives, after ``integers(0, 2, n)``.
    That call may leave half a 64-bit output buffered, which ``random``
    never reads, so the state and increment are all that carry over.
    ``seed`` is any non-negative int; the C code takes it as 32-bit words,
    as numpy's SeedSequence does."""
    words = max(1, -(-(seed + reads - 1).bit_length() // 32))
    entropy = np.frombuffer(seed.to_bytes(4 * words, "little"), dtype="<u4").astype(_UINT32)
    bits = np.empty((reads, n))
    pcg = np.empty((reads, 4), dtype=np.uint64)
    kernel.starts(reads, n, words, *_pointers((), (
        (entropy, (words,), _UINT32), (bits, (reads, n)), (pcg, (reads, 4), _UINT64))))
    return bits, pcg


def _sweeps_c(kernel, lanes, scratch, first, log_u, betas, diag, coupling, state, field,
              running, best_energy, best_state, trace):
    """One chunk of sweeps through the C kernel, in place, ``lanes`` reads
    at a time (1 = the per-read loop); ``log_u`` is lane-major, ``(count,
    n, reads)``."""
    count, n, reads = log_u.shape
    if lanes not in _LANE_WIDTHS or lanes > kernel.lanes:
        raise ValueError(f"lane width {lanes} is not available on this CPU "
                         f"(widths {[w for w in _LANE_WIDTHS if w <= kernel.lanes]})")
    pointers = _pointers((
        (diag, (n,)), (coupling, (n, n)), (log_u, (count, n, reads)), (betas, betas.shape[:1]),
    ), (
        (state, (reads, n)), (field, (reads, n)), (running, (reads,)), (best_energy, (reads,)),
        (best_state, (reads, n)), (trace, (reads, betas.shape[0])),
        (scratch, (_scratch_size(n, lanes),)),
    ))
    if not 0 <= first <= betas.shape[0] - count:
        raise ValueError("sweep chunk runs past the schedule")
    kernel.metropolis(lanes, reads, n, count, first, betas.shape[0], *pointers)


def _sweeps_numpy(first, log_u, betas, diag, coupling, state, field, running,
                  best_energy, best_state, trace):
    """One chunk of sweeps with all reads in lockstep, in place: the
    reference for the C kernel.  ``log_u`` is lane-major, ``(count, n,
    reads)``."""
    count, n, _ = log_u.shape
    for s in range(count):
        # log(u) / -beta as the acceptance threshold on the energy delta
        # is equivalent to u < exp(-beta * delta) and needs no exp per
        # step; it has the bits of -log(u) / beta.
        threshold = log_u[s] / -betas[first + s]
        for i in range(n):
            sign = 1.0 - 2.0 * state[:, i]
            delta = sign * (diag[i] + field[:, i])
            flip = sign * (delta < threshold[i])
            state[:, i] += flip
            running += delta * np.abs(flip)
            field += flip[:, None] * coupling[i]
        improved = running < best_energy
        if improved.any():
            best_energy[improved] = running[improved]
            best_state[improved] = state[improved]
        trace[:, first + s] = best_energy


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _anneal_reads(q: QuboMatrix, schedule: AnnealSchedule):
    """All reads of one anneal.  Returns per-read best assignments, their
    exact energies, the per-sweep best-so-far energy trace, and the final
    states with their incrementally tracked energies (the latter two exist
    so tests can check the incremental bookkeeping against energy()).

    With the C kernel, every read's start bits and PCG64 stream come from
    one ``_starts`` call, and the streams advance as the reads draw; the
    numpy loop seeds its own ``default_rng(seed + r)`` per read.
    The reads run in contiguous blocks, one per usable CPU with the C
    kernel and a single block with the numpy loop.  A block runs its
    reads in groups of up to 8, as many streams as one ``uniforms`` call
    draws (all its reads at once with the numpy loop), and each group
    runs the schedule in chunks of sweeps: the group's uniforms for one
    chunk are drawn lane-major, ``(count, n, width)`` with each step's
    draws side by side, into the front of the block's own slot of the
    draw buffer, by one ``uniforms`` call that steps the group's streams
    as the lanes of one vector, two chains a lane, where the CPU has
    AVX-512 and the group more than 4 streams, and in turn otherwise (by
    ``Generator.random`` per read with the numpy loop).  They
    are turned into log(u) in place, and the kernel (``lanes`` reads at a
    time) or the numpy loop runs the chunk on the group's rows with
    log(u) / -beta as each step's threshold.  The buffer, ``(workers,
    width * min(200, sweeps) * n)`` doubles with ``width`` the group size,
    is made before the blocks start, like the kernel's scratch and the
    streams, so the read threads allocate no arrays.  The start and best
    states' exact energies come from the kernel's ``energies`` in one call
    each (from ``energy`` per read with the numpy loop).  Every block
    count, every lane width, every draw width, and either loop, gives
    bit-identical results.
    """
    qm = q.q
    n = qm.shape[0]
    reads = schedule.num_reads
    betas = np.geomspace(schedule.beta_start, schedule.beta_end, schedule.sweeps)
    diag = np.diag(qm).copy()
    coupling = _coupling(qm)
    kernel = _kernel()
    if kernel is None:
        rngs = [np.random.default_rng(schedule.seed + r) for r in range(reads)]
        state = np.stack([rng.integers(0, 2, size=n) for rng in rngs]).astype(float)

        def energies(states):
            return np.array([energy(q, row) for row in states])

        def draw(g: int, h: int, out: np.ndarray) -> None:
            out = out.reshape(-1, h - g)
            for column, rng in enumerate(rngs[g:h]):
                out[:, column] = rng.random(len(out))
    else:
        state, pcg = _starts(kernel, schedule.seed, reads, n)
        energies = functools.partial(_energies_c, kernel, np.ascontiguousarray(qm))

        def draw(g: int, h: int, out: np.ndarray) -> None:
            _uniforms_c(kernel, _draw_width(kernel, h - g), pcg[g:h], out.reshape(-1, h - g))

    # Adding 0.0 turns -0.0 into +0.0.  Neither array can then hold a
    # negative zero, so the signed zero the numpy loop adds on a rejected
    # flip is a no-op, and the C kernel can skip that update.
    running = energies(state) + 0.0
    # field[r, i] = sum_{j != i} (q[i][j] + q[j][i]) * state[r, j]
    field = state @ coupling.T + 0.0
    best_energy = running.copy()
    best_state = state.copy()
    trace = np.empty((reads, schedule.sweeps))
    chunk = min(_SWEEP_CHUNK, schedule.sweeps)
    if kernel is None:
        workers, width, block_sweeps = 1, reads, [_sweeps_numpy]
    else:
        workers = min(reads, _usable_cpus())
        # A draw group: as many reads as one ``uniforms`` call draws,
        # whatever the kernel's lane width, or a whole block when no block
        # is that wide.  The kernel runs the group ``lanes`` reads at a time.
        width = min(_MAX_STREAMS, -(-reads // workers))
        # Each block's lane-transposed scratch, made before the blocks start.
        block_sweeps = [
            functools.partial(_sweeps_c, kernel, kernel.lanes,
                              np.empty(_scratch_size(n, kernel.lanes)))
            for _ in range(workers)
        ]
    # One chunk's draws for one group of each block, made before any
    # block starts so that the read threads allocate nothing for them.
    draws = np.empty((workers, width * chunk * n))

    def run_block(own: np.ndarray, a: int, b: int, sweeps) -> None:
        # Reads a .. b - 1 run the whole schedule one group at a time;
        # each chunk's draws go into the front of the block's own slot.
        for g in range(a, b, width):
            h = min(g + width, b)
            rows = (state[g:h], field[g:h], running[g:h], best_energy[g:h], best_state[g:h],
                    trace[g:h])
            for done in range(0, schedule.sweeps, chunk):
                count = min(chunk, schedule.sweeps - done)
                log_u = own[:count * n * (h - g)].reshape(count, n, h - g)
                draw(g, h, log_u)
                np.log(log_u, out=log_u)
                sweeps(done, log_u, betas, diag, coupling, *rows)

    if workers == 1:
        run_block(draws[0], 0, reads, block_sweeps[0])
    else:
        edges = [reads * w // workers for w in range(workers + 1)]
        # The calling thread runs the first block; leaving the with block
        # joins every pool thread, also when a block raised.
        with concurrent.futures.ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(run_block, own, a, b, sweeps)
                       for own, a, b, sweeps in zip(draws[1:], edges[1:-1], edges[2:],
                                                    block_sweeps[1:])]
            run_block(draws[0], edges[0], edges[1], block_sweeps[0])
            for future in futures:
                future.result()

    exact = energies(best_state)
    return best_state.astype(int), exact, trace, state.astype(int), running


def simulated_anneal(q: QuboMatrix, schedule: AnnealSchedule) -> SampleResult:
    """Best assignment over ``num_reads`` independent Metropolis anneals.

    Equal best energies resolve to the lowest read index.
    """
    assignments, energies, _, _, _ = _anneal_reads(q, schedule)
    k = int(np.argmin(energies))
    return SampleResult(assignments[k], float(energies[k]), energies)


def brute_force(q: QuboMatrix) -> SampleResult:
    """Exact global minimum by full enumeration; instances above
    ``BRUTE_FORCE_MAX`` variables are refused.

    Ties resolve to the assignment whose bits, read left to right as a
    binary numeral, form the smallest integer.
    """
    n = q.n
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is capped at {BRUTE_FORCE_MAX} variables, got {n}")
    codes = np.arange(2**n)
    # Bit 0 of the assignment is the most significant bit of the numeral,
    # so argmin's first-hit tie behaviour picks the smallest numeral.
    bits = ((codes[:, None] >> (n - 1 - np.arange(n))) & 1).astype(float)
    energies = ((bits @ q.q) * bits).sum(axis=1)
    # Those sums round otherwise than ``energy``'s, the one reported, by
    # less than n²·eps·Σ|q|: rank the codes within 4× that of the minimum
    # again by ``energy``'s left-to-right sum, one term at a time.
    slack = 4.0 * n * n * np.finfo(float).eps * float(np.abs(q.q).sum())
    near = bits[energies <= energies.min() + slack]
    exact = np.zeros(len(near))
    for i, j in np.ndindex(n, n):
        exact += q.q[i, j] * (near[:, i] * near[:, j])
    best = near[int(np.argmin(exact))].astype(int)
    e = energy(q, best)
    return SampleResult(best, e, np.array([e]))


def greedy_descent(q: QuboMatrix, seed: int = 0) -> SampleResult:
    """Best-improvement single-bit-flip descent from one random start."""
    n = q.n
    qm = q.q
    diag = np.diag(qm).copy()
    coupling = _coupling(qm)
    state = np.random.default_rng(seed).integers(0, 2, size=n).astype(float)
    field = coupling @ state
    while True:
        sign = 1.0 - 2.0 * state
        deltas = sign * (diag + field)
        i = int(np.argmin(deltas))
        if deltas[i] >= 0.0:
            break
        state[i] += sign[i]
        field += sign[i] * coupling[i]
    best = state.astype(int)
    e = energy(q, best)
    return SampleResult(best, e, np.array([e]))


@dataclass(frozen=True)
class Presolved:
    """Variables fixed by ``presolve`` and the instance left over.

    ``values`` holds the fixed bits (0 at free variables); ``residual`` is
    the instance over the free variables, in index order, with the fixed
    ones folded into its diagonal, so that for any residual assignment r
    E(full) = E_residual(r) + ``offset``; ``offset`` is the energy of
    ``values``.  When nothing is fixed, ``residual`` is the input instance
    itself.
    """

    fixed: np.ndarray
    values: np.ndarray
    residual: QuboMatrix
    offset: float

    def complete(self, q: QuboMatrix, sub: SampleResult | None) -> SampleResult:
        """Full-instance result from a solver's result on the residual
        (``None`` when no variable is left)."""
        if sub is None:
            return SampleResult(self.values.copy(), self.offset, np.array([self.offset]))
        if not self.fixed.any():
            return sub
        alpha = self.values.copy()
        alpha[~self.fixed] = sub.best_assignment
        return SampleResult(alpha, energy(q, alpha), sub.energies + self.offset)


def presolve(q: QuboMatrix) -> Presolved:
    """First-order persistency (Boros & Hammer, Discrete Appl. Math. 123,
    2002), iterated to a fixpoint.

    With c = q + q^T (zero diagonal) and lin_i = q_ii + sum over j fixed
    to 1 of c_ij, flipping x_i from 0 to 1 changes the energy by lin_i plus
    the couplings to the free variables that are set.  So x_i = 1 holds in
    some optimum when lin_i + sum_free max(0, c_ij) <= 0, and x_i = 0 when
    lin_i + sum_free min(0, c_ij) >= 0 (1 wins when both hold).  Each rule
    holds whatever the other bits are, so every variable that qualifies in
    a round is fixed at once; a round repeats while it fixes something.
    An instance with no positive entry is fixed to all ones in one round.
    """
    qm = q.q
    n = q.n
    coupling = _coupling(qm)
    positive = np.maximum(coupling, 0.0)
    negative = np.minimum(coupling, 0.0)
    diag = np.diag(qm)
    fixed = np.zeros(n, dtype=bool)
    values = np.zeros(n, dtype=int)
    while True:
        free = ~fixed
        lin = diag + coupling @ values
        ones = free & (lin + positive @ free <= 0.0)
        zeros = free & ~ones & (lin + negative @ free >= 0.0)
        if not (ones.any() or zeros.any()):
            break
        values[ones] = 1
        fixed |= ones | zeros
    if not fixed.any():
        return Presolved(fixed, values, q, 0.0)
    keep = np.flatnonzero(~fixed)
    residual = qm[np.ix_(keep, keep)]
    np.fill_diagonal(residual, lin[keep])
    return Presolved(fixed, values, QuboMatrix(residual), energy(q, values))
