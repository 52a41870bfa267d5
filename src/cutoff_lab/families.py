"""Built-in chain families: abelian Cayley walks (deterministic and random),
hypercubes, cycles, complete graphs, birth-death chains, conjugacy-invariant
walks on the permutation group, and the cutoff-destroying perturbation
toward the stationary law.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.fft  # noqa: F401  (lazy in numpy 2: load it at import)
import numpy.random  # noqa: F401

from .chain import (CSR, StochasticMatrix, _admit, _readonly,
                    kernel_rows)
from .entropy import _max_log_lip, _row_entropies, mixing_time
from .errors import (DimensionMismatch, GenerationFailed, NotGenerating,
                     NotSymmetricSet, SpecParseError)
from .spectral import relaxation_time

MAX_REDRAWS = 100
# Largest product of consecutive group factors that the Fourier transform
# of a step law takes as one dense DFT matrix (see StepLaw).
_DFT_RUN = 64

Entropies = namedtuple("Entropies", "d_star v_star worst_row")


@dataclass(frozen=True)
class GroupSpec:
    """Product of cyclic groups Z_{m1} x ... x Z_{mk}, its elements the
    mixed-radix indices 0..N-1; ``add`` is its one group sum."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(int(m) for m in self.factors)
        if not factors or any(m < 2 for m in factors):
            raise SpecParseError("cyclic factors must all be >= 2")
        _admit(math.prod(factors), f"a walk on {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def N(self) -> int:
        return math.prod(self.factors)

    # Elements are mixed-radix indices, last factor fastest.
    def _weights(self) -> np.ndarray:
        w = [1]
        for m in reversed(self.factors[1:]):
            w.append(w[-1] * m)
        return np.array(w[::-1], dtype=np.int64)

    def decode(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        w = self._weights()
        f = np.array(self.factors, dtype=np.int64)
        return (idx[..., None] // w) % f

    def encode(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        return coords @ self._weights()

    def neg(self, a):
        f = np.array(self.factors, dtype=np.int64)
        return self.encode((-self.decode(a)) % f)

    def add(self, a, b) -> np.ndarray:
        """Elementwise a + b, broadcast: a ^ b when every factor is 2, else
        one factor at a time."""
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if set(self.factors) == {2}:
            return a ^ b
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int32)
        for m, w in zip(self.factors, self._weights().tolist()):
            out += (a // w % m + b // w % m) % m * w
        return out

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        """``Z12xZ2`` or ``Z2^8`` or ``Z101``."""
        factors = []
        for part in text.split("x"):
            part = part.strip()
            if not part.startswith("Z"):
                raise SpecParseError(f"bad group factor {part!r}")
            base, sep, power = part[1:].partition("^")
            try:
                base, power = int(base), int(power) if sep else 1
            except ValueError as exc:
                raise SpecParseError(f"bad group factor {part!r}") from exc
            factors.extend(_power(base, power))
        return GroupSpec(tuple(factors))


@dataclass(frozen=True)
class StepLaw:
    """The step law mu of the random walk P(x, y) = mu(y - x) on
    ``group``, laziness included in mu(0); StochasticMatrix.walk declares
    the walk by it.

    Its Fourier transform mu^(k) = sum_g mu(g) chi_k(g), over the
    characters chi_k(g) = exp(-2 pi i sum_j g_j k_j / m_j) in the
    mixed-radix order of ``fftn``, is computed once per law and kept.  It
    takes one step per run of consecutive factors whose product is at most
    _DFT_RUN: one dense DFT matrix, the Kronecker product of the factors'
    matrices, whose twiddles are built from (j k mod m) and are exactly
    +-1 for a factor 2; the run matrices are kept too.  A larger factor
    goes through ``np.fft`` along its own axis.
    """

    group: GroupSpec
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _readonly(np.array(self.mu)))
        if self.mu.shape != (self.group.N,):
            raise DimensionMismatch(f"step law of shape {self.mu.shape} on "
                                    f"the group {self.group.factors}")

    def matrix(self) -> CSR:
        """The walk P(x, y) = mu(y - x) as canonical CSR: mu(g) at
        (x, x + g) for g in the support of mu, from one (N, |supp mu|)
        table of x + g with each row sorted, admitted before it is built."""
        support = np.flatnonzero(self.mu)
        _admit(self.group.N * len(support), f"a walk on {self.group.factors}")
        ys = self.group.add(np.arange(self.group.N)[:, None],
                            support[None, :])
        order = np.argsort(ys, axis=1)
        N, k = ys.shape
        return CSR(np.arange(N + 1) * k,
                   np.take_along_axis(ys, order, axis=1).ravel(),
                   self.mu[support][order].ravel())

    @cached_property
    def _stages(self) -> tuple:
        """(length, DFT matrix) per run of the transform, the matrix None
        for a factor over _DFT_RUN; a matrix of +-1 is kept real."""
        stages = []
        for m in self.group.factors:
            if m > _DFT_RUN:
                stages.append((m, None))
            elif (stages and stages[-1][1] is not None
                  and stages[-1][0] * m <= _DFT_RUN):
                # The Kronecker product W (x) D, by broadcasting.
                M, W = stages[-1]
                D = _dft(m)
                W = W[:, None, :, None] * D[None, :, None, :]
                stages[-1] = (M * m, W.reshape(M * m, M * m))
            else:
                stages.append((m, _dft(m)))
        return tuple(stages)

    def _transform(self, x: np.ndarray) -> np.ndarray:
        """sum_g x(g) chi_k(g) for every k; real while x and the run
        matrices are.  Step i transforms the middle axis of the (L, M, R)
        view of x, M its run's length; a real matrix transforms a complex
        x as the real and imaginary columns of its float view."""
        x = np.asarray(x)
        L = 1
        for M, W in self._stages:
            x = x.reshape(L, M, -1)
            if W is None:
                x = np.fft.fft(x, axis=1)
            elif x.shape[2] == 1:
                x = x[:, :, 0] @ W.T
            elif W.dtype == np.float64 and x.dtype == np.complex128:
                x = (W @ x.view(np.float64)).view(np.complex128)
            else:
                x = W @ x
            L *= M
        return x.ravel()

    @cached_property
    def _hat(self) -> np.ndarray:
        """mu^, read-only."""
        hat = self._transform(self.mu)
        hat.setflags(write=False)
        return hat

    @cached_property
    def _gap(self) -> np.ndarray:
        """1 - mu^, read-only, exactly 0 at the trivial character; real
        when mu is symmetric (mu(-g) = mu(g)), whose mu^ is real."""
        gap = 1.0 - self._hat
        if np.iscomplexobj(gap) and np.array_equal(
                self.mu, self.mu[self.group.neg(np.arange(self.group.N))]):
            gap = gap.real.copy()
        gap[0] = 0.0
        gap.setflags(write=False)
        return gap

    def characters(self) -> np.ndarray:
        """Re mu^(k) = Re sum_g mu(g) chi_k(g) for every character chi_k
        of the group, read-only (see relaxation_time for its accuracy)."""
        return self._hat.real

    def _heat_row(self, t: float) -> np.ndarray:
        """The real part of the inverse transform of exp(-t(1 - mu^)): the
        row P_t(0, .) up to rounding (see chain._KernelRows).  Every finite
        t >= 0 answers without a floating-point warning.  The inverse is
        the conjugate of the transform of the conjugate, and only its real
        part is read.  At t = 0 the row is e_0 exactly, as P_0 = I."""
        if t == 0.0:
            return np.eye(1, self.group.N)[0]
        with np.errstate(over="ignore", under="ignore"):
            e = np.exp(np.multiply(self._gap, -t))
        if np.iscomplexobj(e):
            np.conj(e, out=e)
        return self._transform(e).real / self.group.N


@dataclass(frozen=True)
class ChainInstance:
    """A constructed chain plus provenance and symmetry metadata.

    Also the per-chain context of the verdict layer: t_rel, t_mix(eps), the
    entropies at t and the log-gradient norm at t (all but t_rel depend on
    ``starts``) are computed on first use and kept; pi and the metric are
    kept on the matrix.
    """

    matrix: StochasticMatrix
    family: str
    params: dict = field(default_factory=dict)
    transitive: bool = False
    _t_mix: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _entropies: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)
    _log_lip: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def starts(self):
        """Start set sufficient for worst-case maximizations over starting
        states (TV, entropy) and for curvature minimizations over edges and
        vertices (Ollivier, Bakry-Emery, W1 contraction): [0] on a
        vertex-transitive chain, whose automorphisms preserve P, P_t and
        the metric; None (every state) otherwise.  The ``curvature``
        command still tabulates every edge and vertex."""
        return [0] if self.transitive else None

    @cached_property
    def t_rel(self) -> float:
        return relaxation_time(self.matrix).t_rel

    def t_mix(self, eps: float) -> float:
        """Worst-case mixing time over ``starts``, memoized by eps; eps is
        rounded to 12 significant digits (the CSV precision), so that
        ``1 - 0.9`` and ``0.1`` share one search."""
        key = float(f"{eps:.12g}")
        if key not in self._t_mix:
            self._t_mix[key] = mixing_time(self.matrix, key, starts=self.starts)
        return self._t_mix[key]

    def entropies(self, t: float) -> Entropies:
        """d*(t), V*(t) and the KL-worst row P_t(o, .) over ``starts``, from
        one kernel_rows call; memoized by t, keeping O(n) and not the rows."""
        if t not in self._entropies:
            rows = kernel_rows(self.matrix, t, self.starts)
            kl, var = _row_entropies(rows, self.matrix.pi)
            self._entropies[t] = Entropies(
                float(kl.max()), float(var.max()),
                _readonly(rows.take(kl.argmax(), axis=0)))
        return self._entropies[t]

    def log_lip(self, t: float) -> float:
        """max over ``starts`` of ||log(P_t(o, .)/pi)||_Lip (see
        entropy._max_log_lip), memoized by t."""
        if t not in self._log_lip:
            self._log_lip[t] = _max_log_lip(self.matrix, t, self.starts)
        return self._log_lip[t]


def _power(base: int, power: int) -> tuple:
    """The factors of Z_base^power, refused on the group's order before
    they are expanded (base^64, over any limit, past 64 factors)."""
    if base < 2:
        raise SpecParseError("cyclic factors must all be >= 2")
    _admit(base ** min(power, 64), f"Z{base}^{power}")
    return (base,) * power


def _dft(m: int) -> np.ndarray:
    """DFT matrix of Z_m, w_r = exp(-2 pi i r/m) at r = j k mod m: exact
    +-1 for m = 2, and w_{m-r} the conjugate of w_r, so no angle is
    taken past pi."""
    if m == 2:
        return np.array([[1.0, 1.0], [1.0, -1.0]])
    w = np.exp(-2j * np.pi / m * np.arange(m // 2 + 1))
    w = np.concatenate([w, np.conj(w[(m + 1) // 2 - 1:0:-1])])
    return w[np.outer(np.arange(m), np.arange(m)) % m]


def _generating(P: StochasticMatrix) -> bool:
    """S generates G exactly when Cay(G, S), the support of its walk P, is
    connected: when P is irreducible (on a finite group weak and strong
    connectivity coincide)."""
    return P.irreducible


def _cayley_walk(spec: GroupSpec, elems, family: str, params: dict,
                 laziness: float = 0.0) -> ChainInstance:
    """P(x,y) = mu(y - x) with mu(g) = (1/|S|) #{s in S : s = g}, made
    alpha-lazy by mu <- alpha [g = 0] + (1 - alpha) mu if laziness > 0;
    ``elems`` is a symmetric multiset of element indices, generating unless
    the caller tests the walk with _generating."""
    mu = np.zeros(spec.N)
    for g in elems:
        mu[g] += 1.0 / len(elems)
    if laziness > 0.0:
        mu *= 1.0 - laziness
        mu[0] += laziness
    return ChainInstance(StochasticMatrix.walk(StepLaw(spec, mu)),
                         family=family, params=params, transitive=True)


def abelian_cayley(spec: GroupSpec, S) -> ChainInstance:
    """Random walk P(x,y) = (1/|S|) #{z in S : y = x + z} on the group.

    ``S`` is a multiset of element indices (negative g means the inverse of
    element -g); it must be closed under negation and generating.
    """
    S = [int(g) for g in S]
    elems = [int(spec.neg(-g)) if g < 0 else g % spec.N for g in S]
    if Counter(elems) != Counter(int(spec.neg(g)) for g in elems):
        raise NotSymmetricSet("generator multiset not closed under negation")
    inst = _cayley_walk(spec, elems, "cayley",
                        {"factors": spec.factors, "gens": tuple(S)})
    if not _generating(inst.matrix):
        raise NotGenerating("generators do not generate the group")
    return inst


def random_abelian_cayley(spec: GroupSpec, d: int, seed: int) -> ChainInstance:
    """d i.i.d. uniform draws, symmetrized as S = draws + their inverses.

    Redraws (up to ``MAX_REDRAWS``) until the set generates; deterministic
    given the seed.  The identity may be drawn (adds laziness).  Each draw
    builds its walk once, and the generation test reads that walk.
    """
    if d < 1:
        raise SpecParseError("need at least one generator draw")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REDRAWS):
        draws = rng.integers(0, spec.N, size=d)
        inst = _cayley_walk(spec, np.concatenate([draws, spec.neg(draws)]),
                            "cayley-random",
                            {"factors": spec.factors, "d": d, "seed": seed,
                             "draws": tuple(int(g) for g in draws)})
        if _generating(inst.matrix):
            return inst
    raise GenerationFailed(f"no generating draw in {MAX_REDRAWS} attempts")


def hypercube(d: int, laziness: float = 0.0) -> ChainInstance:
    """Simple random walk on {0,1}^d, optionally alpha-lazy."""
    if d < 1:
        raise SpecParseError("hypercube needs d >= 1")
    if not (0.0 <= laziness < 1.0):
        raise SpecParseError("laziness must lie in [0,1)")
    # The unit vectors of Z_2^d are the powers of two.
    return _cayley_walk(GroupSpec(_power(2, d)), 2 ** np.arange(d),
                        "hypercube", {"d": d, "lazy": laziness}, laziness)


def cycle(n: int) -> ChainInstance:
    """Simple random walk on the n-cycle."""
    if n < 2:
        raise SpecParseError("cycle needs n >= 2")
    return _cayley_walk(GroupSpec((n,)), [1, n - 1], "cycle", {"n": n})


def complete_graph(n: int) -> ChainInstance:
    """Simple random walk on K_n (a Cayley graph of Z_n)."""
    if n < 2:
        raise SpecParseError("complete graph needs n >= 2")
    return _cayley_walk(GroupSpec((n,)), range(1, n), "complete", {"n": n})


def birth_death(p, q) -> ChainInstance:
    """Tridiagonal chain with reflecting boundaries.

    ``p[i]`` is the up-rate from state i, ``q[i]`` the down-rate from state
    i+1; the state count is len(p) + 1.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape or len(p) < 1:
        raise SpecParseError("p and q must be equal-length nonempty vectors")
    if np.any(p <= 0) or np.any(q <= 0):
        raise SpecParseError("birth-death rates must be positive")
    n = len(p) + 1
    _admit(n * n, f"a {n}-state birth-death chain")
    P = np.zeros((n, n))
    for i in range(n - 1):
        P[i, i + 1] = p[i]
        P[i + 1, i] = q[i]
    holds = 1.0 - P.sum(axis=1)
    if np.any(holds < -1e-12):
        raise SpecParseError("rates exceed 1 at some state")
    P[np.arange(n), np.arange(n)] = np.clip(holds, 0.0, None)
    return ChainInstance(StochasticMatrix(P), family="bd",
                         params={"p": tuple(p), "q": tuple(q)},
                         transitive=False)


def perturb_toward_uniform(inner: ChainInstance,
                           theta: float) -> ChainInstance:
    """Replace P with (1-theta) P + theta Pi, Pi having every row pi.

    Preserves pi exactly. For theta > 0 every off-diagonal entry is at
    least theta pi(y), so every pair of states becomes adjacent and the
    sparsity parameter satisfies Delta(Q) <= 1/(theta min pi). Equality
    holds when some state y of minimal pi has P(x,y) = 0 for some x != y,
    since then Q(x,y) = theta pi(y). Used to demonstrate why the log Delta
    term in the cutoff criterion cannot be dropped.
    A declared walk stays one, of law (1-theta) mu + theta (1/n).
    """
    if not (0.0 <= theta <= 1.0):
        raise SpecParseError("theta must lie in [0,1]")
    P = inner.matrix
    pi = P.pi.probs
    law = P.step_law
    if law is not None:
        Q = StochasticMatrix.walk(StepLaw(
            law.group, (1.0 - theta) * law.mu + theta * (1.0 / P.n)))
    else:
        Q = StochasticMatrix((1.0 - theta) * P.entries + theta * pi[None, :])
    uniform_pi = np.allclose(pi, 1.0 / P.n, atol=1e-12)
    return ChainInstance(Q, family="perturb",
                         params={"theta": theta, "inner": inner.family},
                         transitive=bool(inner.transitive and uniform_pi))


def _cycle_type(perm) -> tuple:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length > 1:
            lengths.append(length)
    return tuple(sorted(lengths))


def conjugacy_walk(k: int, cls="transpositions") -> ChainInstance:
    """Random walk on S_k with uniform step in a conjugacy class."""
    if k < 2:
        raise SpecParseError(f"conjugacy walk needs k >= 2, got {k}")
    _admit(math.factorial(min(k, 20)) ** 2, f"S_{k}")   # 20! > any limit
    if cls == "transpositions":
        target = (2,)
    else:
        try:
            target = tuple(sorted(int(v) for v in str(cls).split(",")))
        except ValueError as exc:
            raise SpecParseError(f"bad conjugacy class {cls!r}") from exc
        if any(v < 2 for v in target) or sum(target) > k:
            raise SpecParseError(f"cycle type {target} does not fit in S_{k}")
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    steps = [p for p in perms if _cycle_type(p) == target]
    if not steps:
        raise SpecParseError(f"empty conjugacy class {target} in S_{k}")
    n = len(perms)
    P = np.zeros((n, n))
    w = 1.0 / len(steps)
    for i, sigma in enumerate(perms):
        for tau in steps:
            composed = tuple(tau[sigma[j]] for j in range(k))
            P[i, index[composed]] += w
    return ChainInstance(StochasticMatrix(P), family="sym",
                         params={"k": k, "class": target},
                         transitive=True)


# ---------------------------------------------------------------------------
# Family spec strings
# ---------------------------------------------------------------------------

def _kv(segment: str):
    if "=" not in segment:
        raise SpecParseError(f"expected key=value, got {segment!r}")
    key, value = segment.split("=", 1)
    return key.strip(), value.strip()


def _keys(segments, known) -> dict:
    """The key=value ``segments`` as a dict; a key not in ``known`` is
    refused, not dropped."""
    kv = dict(_kv(p) for p in segments)
    for key in kv:
        if key not in known:
            raise SpecParseError(f"unknown key {key!r}; expected one of "
                                 f"{', '.join(known)}")
    return kv


def parse_family_spec(text: str) -> ChainInstance:
    """Build a ChainInstance from a spec string.

    Grammar: ``cayley:Z12xZ2:gens=1,-1,5,-5``,
    ``cayley-random:Z2^8:d=16:seed=42``, ``hypercube:d=8:lazy=0.0``,
    ``cycle:n=32``, ``complete:n=50``, ``bd:p=0.3,0.3;q=0.4,0.4``,
    ``perturb:theta=0.01:<inner spec>``, ``sym:k=4:class=transpositions``.
    """
    parts = text.strip().split(":")
    head = parts[0]
    try:
        if head == "cayley":
            spec = GroupSpec.parse(parts[1])
            gens = _keys(parts[2:], ("gens",))["gens"]
            return abelian_cayley(spec, [int(v) for v in gens.split(",")])
        if head == "cayley-random":
            spec = GroupSpec.parse(parts[1])
            kv = _keys(parts[2:], ("d", "seed"))
            return random_abelian_cayley(spec, int(kv["d"]),
                                         int(kv.get("seed", 0)))
        if head == "hypercube":
            kv = _keys(parts[1:], ("d", "lazy"))
            return hypercube(int(kv["d"]), float(kv.get("lazy", 0.0)))
        if head == "cycle":
            return cycle(int(_keys(parts[1:], ("n",))["n"]))
        if head == "complete":
            return complete_graph(int(_keys(parts[1:], ("n",))["n"]))
        if head == "bd":
            if len(parts) != 2 or ";" not in parts[1]:
                raise SpecParseError("bd expects p=...;q=...")
            pseg, qseg = parts[1].split(";", 1)
            pk, pv = _kv(pseg)
            qk, qv = _kv(qseg)
            if (pk, qk) != ("p", "q"):
                raise SpecParseError("bd expects p=...;q=...")
            p = [float(v) for v in pv.split(",")]
            q = [float(v) for v in qv.split(",")]
            return birth_death(p, q)
        if head == "perturb":
            key, value = _kv(parts[1])
            if key not in ("theta", "θ"):
                raise SpecParseError("perturb expects theta=...")
            inner = parse_family_spec(":".join(parts[2:]))
            return perturb_toward_uniform(inner, float(value))
        if head == "sym":
            kv = _keys(parts[1:], ("k", "class"))
            return conjugacy_walk(int(kv["k"]),
                                  kv.get("class", "transpositions"))
    except (KeyError, ValueError, IndexError) as exc:
        raise SpecParseError(f"malformed spec {text!r}: {exc}") from exc
    raise SpecParseError(f"unknown family {head!r}")


def parse_family_range(text: str):
    """Expand a spec containing one ``lo..hi`` (or ``lo..hi..step``) range.

    Returns the list of (value, ChainInstance) pairs, in increasing order.
    """
    marker = None
    for seg in text.split(":"):
        if ".." in seg and "=" in seg:
            marker = seg
            break
    if marker is None:
        raise SpecParseError(f"no range of the form key=lo..hi in {text!r}")
    key, value = _kv(marker)
    pieces = value.split("..")
    try:
        # lo..hi or lo..hi..step: any other shape fails to unpack.
        lo, hi, step = [int(v) for v in pieces] + [1] * (3 - len(pieces))
    except ValueError as exc:
        raise SpecParseError(f"bad range {value!r}") from exc
    if step < 1 or hi < lo:
        raise SpecParseError(f"bad range {value!r}")
    out = []
    for v in range(lo, hi + 1, step):
        spec = text.replace(marker, f"{key}={v}", 1)
        out.append((v, parse_family_spec(spec)))
    return out
