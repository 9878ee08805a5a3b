"""Deterministic random generation: sphere sampling and random needle draws.

The reproducibility contract: a :class:`RngSpec` is a 64-bit seed for the
``pcg64`` generator; identical specs yield identical streams on every
platform.  A seed is an integer >= 0 (Python or numpy, not a bool); any
other raises ``OutOfDomain``.  Parallel work never shares a stream --
substreams are derived by spawn keys from fixed task indices, so results
are bitwise independent of the thread count and schedule.  Arithmetic on
the draws runs in a fixed order (the cap test sums the squared coordinates
left to right), so results do not depend on how numpy chooses to reduce.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .densities import HALF_PI
from .errors import _check

_MC_CHUNK = 1 << 14


@dataclass(frozen=True)
class RngSpec:
    """A seed for PCG64: same seed, same stream, anywhere."""

    seed: int
    algorithm = "pcg64"  # a class constant, not a field: the only generator

    def __post_init__(self):
        object.__setattr__(self, "seed", _check("count", self.seed, "seed", bound=0))

    def generator(self, *spawn_key):
        seq = np.random.SeedSequence(self.seed, spawn_key=tuple(spawn_key))
        return np.random.Generator(np.random.PCG64(seq))


def as_rng_spec(rng):
    if isinstance(rng, RngSpec):
        return rng
    return RngSpec(rng)


def mc_cap_mass(n, cap_radius, samples, rng, stream=0, threads=1):
    """Monte Carlo estimate of the normalized volume of a spherical cap.

    Uniform samples on S^n come from normalized isotropic Gaussian vectors
    (dimension-agnostic and unbiased); the cap of radius r around the first
    basis vector is the event ``x_0 >= cos r``.  The hit test is
    ``x_0 >= cos(r) * sqrt(s)``, ``s`` the squared coordinates summed in
    one fixed order, ``x_0^2`` first and then ``x_1^2`` to ``x_n^2``, so
    the estimate does not depend on numpy's reduction strategy.  Returns
    the binomial estimate and its standard error.  Sampling is chunked
    with one substream ``(stream, chunk index)`` per fixed chunk index, so
    the estimate does not depend on the thread count.

    ``cap_radius`` may be an array: each chunk's draw and norms then serve
    every radius, and ``estimate`` and ``stderr`` are arrays of its shape,
    each entry bit for bit that radius's own call.  Raises ``OutOfDomain``
    for a dimension, sample count or thread count that is not an integer >=
    1, for a ``stream`` or seed that is not an integer >= 0, for radii that
    are not ints or floats (a bool or a string is not a radius), and for
    any radius that is not finite or lies outside [0, pi] by more than 1e-12.
    """
    radii = _check("radii", cap_radius, "cap radii", bound=math.pi)
    (est,) = _mc_cap_masses((n,), (radii,), samples, rng, stream, threads)
    if radii.ndim == 0:
        est["estimate"], est["stderr"] = float(est["estimate"]), float(est["stderr"])
    return est


def _mc_cap_masses(dims, radii, samples, rng, stream, threads):
    """:func:`mc_cap_mass` on S^n for each ``n`` of ``dims`` at the float
    radius array of the same place in ``radii``, as one result dict per
    dimension, each bit for bit that dimension's own call: each chunk draws
    its ``rows x (max n + 1)`` normals once, as one flat array, and S^n
    reads its first ``rows x (n + 1)`` values as its ``(rows, n + 1)``
    block.  The generator fills in order, so that prefix is the draw a
    ``(rows, n + 1)`` call makes on the same substream."""
    dims = [_check("count", n, "sphere dimension", bound=1) for n in dims]
    samples = _check("count", samples, "samples", bound=1)
    threads = _check("count", threads, "threads", bound=1)
    stream = _check("count", stream, "stream", bound=0)
    spec = as_rng_spec(rng)
    cos_r = [[math.cos(x) for x in r.ravel()] for r in radii]
    width = max(dims) + 1
    chunks = list(enumerate(range(0, samples, _MC_CHUNK)))

    def count_chunk(chunk):
        # each sphere's hit test x_0 >= cos(r) * sqrt(x_0^2 + ... + x_n^2)
        # runs in place, radius by radius, on four buffers of one value per row
        chunk_idx, start = chunk
        rows = min(_MC_CHUNK, samples - start)
        flat = spec.generator(stream, chunk_idx).standard_normal(rows * width)
        x0, root, term = np.empty(rows), np.empty(rows), np.empty(rows)
        hit = np.empty(rows, dtype=bool)
        counts = []
        for n, c in zip(dims, cos_r):
            x = flat[: rows * (n + 1)].reshape(rows, n + 1)
            np.copyto(x0, x[:, 0])
            np.multiply(x0, x0, out=root)
            for j in range(1, n + 1):
                np.multiply(x[:, j], x[:, j], out=term)
                np.add(root, term, out=root)
            np.sqrt(root, out=root)
            counts.append(np.array([
                np.count_nonzero(np.greater_equal(x0, np.multiply(cr, root, out=term), out=hit))
                for cr in c
            ]))
        return counts

    if threads == 1:
        per_chunk = [count_chunk(c) for c in chunks]
    else:  # the pool changes only the wall time: each chunk owns its substream
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(count_chunk, chunks))
    out = []
    for r, hits in zip(radii, map(sum, zip(*per_chunk))):
        p = hits.reshape(r.shape) / samples
        stderr = np.sqrt(np.maximum(p * (1.0 - p), 1e-300) / samples)
        out.append({"estimate": p, "stderr": stderr, "samples": samples})
    return out


def _affine_draws(gen, count, length_cap, p_range, min_length):
    """``count`` sin^p-affine needles on ``[0, L]``, as three array draws in
    this order: lengths ``L`` uniform in ``[min_length, min(length_cap, pi)]``,
    power indices uniform over ``sorted(p_range)``, and phases uniform in
    ``[L - pi/2, pi/2]``, the window keeping ``cos(t - phase)`` positive on
    ``(0, L)``.  Returns ``(lengths, powers, phases)``, powers as floats.
    Raises ``OutOfDomain`` for a ``p_range`` that breaks the ``powers``
    kind (empty, nested, or not ints or floats) and a length cap that breaks
    the ``length`` kind (not an int or a float, below ``min_length`` or
    NaN)."""
    choices = _check("powers", p_range, "p_range")
    cap = _check("length", length_cap, "length cap", bound=min_length)
    lengths = gen.uniform(min_length, min(cap, math.pi), count)
    powers = choices[gen.integers(0, choices.size, count)]
    return lengths, powers, gen.uniform(lengths - HALF_PI, HALF_PI)
