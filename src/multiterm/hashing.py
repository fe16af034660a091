"""Function ensembles with the collision (alpha, beta) property.

Three kinds: independent random binning (optionally with skewed bin
probabilities), uniform linear maps over a prime field, and sparse linear
maps with fixed column weight.  Binning and uniform linear ensembles are
2-universal, hence carry stored parameters (1, 0); sparse ensembles get
their beta measured exactly at construction rather than assumed.

Domain elements are integers 0..domain_size-1; linear kinds interpret them
as base-q digit vectors of length n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import gfq
from .errors import BudgetExceededError, ConfigurationError
from .rational import int_array, integer_scaled
from .reports import Report

_ENUM_BUDGET = 1 << 20


@dataclass(frozen=True)
class HashFunction:
    """One realized map w -> c, with its parent ensemble kind."""

    kind: str
    domain_size: int
    image_size: int
    table: Optional[tuple] = None          # binning: bin index per element
    matrix: Optional[tuple] = None         # linear kinds: rows over GF(q)
    q: Optional[int] = None
    n: Optional[int] = None
    parts: Optional[tuple] = None          # composed: inner functions

    def __call__(self, w: int):
        if self.kind == "binning":
            return self.table[w]
        if self.kind in ("linear", "sparse-linear"):
            vec = gfq.decode(w, self.q, self.n)
            return gfq.encode(gfq.matvec(self.matrix, vec, self.q), self.q)
        if self.kind == "compose":
            return tuple(part(w) for part in self.parts)
        raise ConfigurationError("unknown hash kind %r" % (self.kind,))


class HashEnsemble:
    """Base class; subclasses fill in collision probabilities and sampling."""

    kind: str
    domain_size: int
    image_size: int
    alpha: Fraction
    beta: Fraction

    def collision_prob(self, w: int, w2: int) -> Fraction:
        raise NotImplementedError

    def sample_function(self, seed) -> HashFunction:
        raise NotImplementedError

    def enumerate_functions(self):
        """Yield (function, probability) over the whole ensemble."""
        raise NotImplementedError

    def function_count(self) -> int:
        raise NotImplementedError

    def point_law(self, points):
        """The law of the ensemble's values at the distinct domain elements
        `points`, in integers.

        Returns (values, weights, denominator): `values` has one row per
        distinct value tuple (f(p) for p in points), as integer labels that
        agree exactly where the hash values agree; row r has probability
        weights[r] / denominator.  This base version folds
        :meth:`enumerate_functions` by value tuple.
        """
        folded: dict = {}
        for f, p in self.enumerate_functions():
            key = tuple(f(w) for w in points)
            folded[key] = folded.get(key, 0) + p
        weights, denominator = integer_scaled(list(folded.values()))
        return (_label_rows(folded, len(points)), int_array(weights, denominator),
                denominator)

    def describe(self) -> str:
        return "%s(domain=%d, image=%d)" % (self.kind, self.domain_size, self.image_size)


class BinningEnsemble(HashEnsemble):
    """Each domain element gets an independent bin; uniform unless skewed."""

    kind = "binning"

    def __init__(self, domain_size: int, bins: int, weights=None):
        if domain_size < 1 or bins < 1:
            raise ConfigurationError("binning needs positive domain and bin count")
        self.domain_size = domain_size
        self.image_size = bins
        if weights is None:
            self.weights = (Fraction(1, bins),) * bins
        else:
            self.weights = tuple(Fraction(w) for w in weights)
            if len(self.weights) != bins or sum(self.weights) != 1:
                raise ConfigurationError("bin weights must be a pmf over the bins")
        nums, scale = integer_scaled(self.weights)
        self._pair = Fraction(sum(v * v for v in nums), scale * scale)
        self.alpha = Fraction(1)
        self.beta = Fraction(0)
        if self._pair > Fraction(1, bins):
            # skewed bins are not 2-universal; record the exact measured pair
            self.alpha = self._pair * bins
        self._float_weights = np.array([float(w) for w in self.weights])

    def collision_prob(self, w, w2):
        if w == w2:
            return Fraction(1)
        return self._pair

    def sample_function(self, seed) -> HashFunction:
        rng = np.random.default_rng(seed)
        table = tuple(int(c) for c in rng.choice(
            self.image_size, size=self.domain_size, p=self._float_weights))
        return HashFunction("binning", self.domain_size, self.image_size, table=table)

    def function_count(self) -> int:
        return self.image_size ** self.domain_size

    def enumerate_functions(self):
        _check_count(self.function_count(), "functions")
        for table in itertools.product(range(self.image_size), repeat=self.domain_size):
            p = Fraction(1)
            for c in table:
                p *= self.weights[c]
            yield HashFunction("binning", self.domain_size, self.image_size, table=table), p

    def point_law(self, points):
        """Each point's bin drawn independently: one row per assignment of
        positive-weight bins to the points, weighted by the product of the
        bin weights over the common denominator of those weights."""
        bins = [c for c, w in enumerate(self.weights) if w]
        _check_count(len(bins) ** len(points), "point-law rows")
        nums, scale = integer_scaled([self.weights[c] for c in bins])
        denominator = scale ** len(points)
        weights, nums = int_array([1], denominator), int_array(nums, denominator)
        for _ in points:
            weights = np.multiply.outer(weights, nums).ravel()
        grid = np.indices((len(bins),) * len(points)).reshape(len(points), -1).T
        return np.array(bins, dtype=np.int64)[grid], weights, denominator


class LinearEnsemble(HashEnsemble):
    """All m x n matrices over GF(q), uniformly distributed."""

    kind = "linear"

    def __init__(self, q: int, n: int, m: int):
        gfq.require_prime(q)
        if n < 1 or m < 0:
            raise ConfigurationError("linear ensemble needs n >= 1, m >= 0")
        self.q, self.n, self.m = q, n, m
        self.domain_size = q ** n
        self.image_size = q ** m
        self.alpha = Fraction(1)
        self.beta = Fraction(0)

    def collision_prob(self, w, w2):
        if w == w2:
            return Fraction(1)
        return Fraction(1, self.image_size)

    def sample_function(self, seed) -> HashFunction:
        rng = np.random.default_rng(seed)
        rows = tuple(tuple(int(v) for v in row)
                     for row in rng.integers(0, self.q, size=(self.m, self.n)))
        return HashFunction("linear", self.domain_size, self.image_size,
                            matrix=rows, q=self.q, n=self.n)

    def function_count(self) -> int:
        return self.q ** (self.m * self.n)

    def enumerate_functions(self):
        _check_count(self.function_count(), "matrices")
        p = Fraction(1, self.function_count())
        for flat in itertools.product(range(self.q), repeat=self.m * self.n):
            rows = tuple(tuple(flat[r * self.n:(r + 1) * self.n]) for r in range(self.m))
            yield HashFunction("linear", self.domain_size, self.image_size,
                               matrix=rows, q=self.q, n=self.n), p


class SparseLinearEnsemble(HashEnsemble):
    """Matrices whose every column has exactly `column_weight` nonzeros.

    The support of each column is uniform over the weight-sized row subsets
    and the nonzero values are uniform; columns are independent.  beta is
    measured exactly at alpha=1 during construction (the collision
    probability depends only on how many difference coordinates are active,
    so the profile is a short convolution).  The default weight is
    max(2, ceil(log2 n)) clamped to m; at m = 0 the one matrix is the
    constant function, with beta 0.
    """

    kind = "sparse-linear"

    def __init__(self, q: int, n: int, m: int, column_weight: Optional[int] = None):
        gfq.require_prime(q)
        if column_weight is None:
            column_weight = min(m, max(2, math.ceil(math.log2(max(n, 2)))))
        # m = 0 leaves one matrix, the constant function, at weight 0
        if not (min(m, 1) <= column_weight <= m):
            raise ConfigurationError(
                "column weight %r must lie in [%d, m] for the %s ensemble with m = %d"
                % (column_weight, min(m, 1), self.kind, m))
        self.q, self.n, self.m = q, n, m
        self.column_weight = column_weight
        self.domain_size = q ** n
        self.image_size = q ** m
        if self.image_size > (1 << 16):
            raise BudgetExceededError("sparse ensemble image too large to profile")
        self._profile = self._collision_profile()
        self.alpha = Fraction(1)
        self.beta = self._measure_beta(self.alpha)

    def _column_options(self) -> list:
        """Every column the ensemble draws from, each support with each nonzero fill."""
        options = []
        for support in itertools.combinations(range(self.m), self.column_weight):
            for values in itertools.product(range(1, self.q), repeat=self.column_weight):
                col = [0] * self.m
                for r, v in zip(support, values):
                    col[r] = v
                options.append(tuple(col))
        return options

    def _collision_profile(self):
        """profile[k] = P(A d = 0) when the difference has k active digits: the
        mass at 0 of a sum of k columns, each uniform over the column options."""
        options = self._column_options()
        p, zero = Fraction(1, len(options)), (0,) * self.m
        profile, current = [Fraction(1)], {zero: Fraction(1)}
        for _ in range(self.n):
            nxt: dict = {}
            for state, mass in current.items():
                for column in options:
                    key = gfq.add(state, column, self.q)
                    nxt[key] = nxt.get(key, Fraction(0)) + mass * p
            current = nxt
            profile.append(current.get(zero, Fraction(0)))
        return profile

    def _measure_beta(self, alpha: Fraction) -> Fraction:
        threshold = alpha / self.image_size
        total = Fraction(0)
        for k in range(1, self.n + 1):
            pk = self._profile[k]
            if pk > threshold:
                total += math.comb(self.n, k) * (self.q - 1) ** k * pk
        return total

    def collision_prob(self, w, w2):
        if w == w2:
            return Fraction(1)
        u = gfq.decode(w, self.q, self.n)
        v = gfq.decode(w2, self.q, self.n)
        active = sum(1 for a, b in zip(u, v) if a != b)
        return self._profile[active]

    def sample_function(self, seed) -> HashFunction:
        rng = np.random.default_rng(seed)
        cols = []
        for _ in range(self.n):
            support = rng.choice(self.m, size=self.column_weight, replace=False)
            values = rng.integers(1, self.q, size=self.column_weight)
            col = [0] * self.m
            for r, v in zip(support, values):
                col[int(r)] = int(v)
            cols.append(col)
        rows = tuple(tuple(cols[j][r] for j in range(self.n)) for r in range(self.m))
        return HashFunction("sparse-linear", self.domain_size, self.image_size,
                            matrix=rows, q=self.q, n=self.n)

    def function_count(self) -> int:
        return len(self._column_options()) ** self.n

    def enumerate_functions(self):
        options = self._column_options()
        count = len(options) ** self.n
        _check_count(count, "matrices")
        p = Fraction(1, count)
        for cols in itertools.product(options, repeat=self.n):
            rows = tuple(tuple(cols[j][r] for j in range(self.n)) for r in range(self.m))
            yield HashFunction("sparse-linear", self.domain_size, self.image_size,
                               matrix=rows, q=self.q, n=self.n), p


class ComposedEnsemble(HashEnsemble):
    """Joint ensemble (f, g)(w) = (f(w), g(w)) of independent draws.

    Parameters follow the composition rule alpha = alpha_F * alpha_G,
    beta = beta_F + beta_G.
    """

    kind = "compose"

    def __init__(self, *parts: HashEnsemble):
        if len(parts) < 2:
            raise ConfigurationError("composition needs at least two ensembles")
        sizes = {p.domain_size for p in parts}
        if len(sizes) != 1:
            raise ConfigurationError("composed ensembles must share one domain")
        self.parts = tuple(parts)
        self.domain_size = parts[0].domain_size
        self.image_size = 1
        self.alpha = Fraction(1)
        self.beta = Fraction(0)
        for p in parts:
            self.image_size *= p.image_size
            self.alpha *= p.alpha
            self.beta += p.beta

    def collision_prob(self, w, w2):
        out = Fraction(1)
        for p in self.parts:
            out *= p.collision_prob(w, w2)
        return out

    def sample_function(self, seed) -> HashFunction:
        """One function per part, each drawn from its own child of `seed`.  A
        :class:`numpy.random.SeedSequence` is copied, with its entropy and
        spawn key, before spawning: distinct children give distinct draws and
        one child gives the same draw each time."""
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        seq = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                     pool_size=seed.pool_size).spawn(len(self.parts))
        funcs = tuple(p.sample_function(s) for p, s in zip(self.parts, seq))
        return HashFunction("compose", self.domain_size, self.image_size, parts=funcs)

    def function_count(self) -> int:
        total = 1
        for p in self.parts:
            total *= p.function_count()
        return total

    def enumerate_functions(self):
        """Yield one function per part, in ``itertools.product`` order over
        the parts' enumerations, with the product of their probabilities."""
        _check_count(self.function_count(), "functions")
        for combo in itertools.product(*(list(p.enumerate_functions()) for p in self.parts)):
            prob = combo[0][1]
            for _, p in combo[1:]:
                prob *= p
            yield HashFunction("compose", self.domain_size, self.image_size,
                               parts=tuple(f for f, _ in combo)), prob


def _check_count(count: int, what: str):
    """Refuse to enumerate more than the budget of `what`, naming `count` in
    decimal up to 64 bits and by its bit length beyond (a decimal string of
    64^16384 exceeds the interpreter's int-to-str digit limit)."""
    if count > _ENUM_BUDGET:
        text = str(count) if count.bit_length() <= 64 else "at least 2^%d" % (count.bit_length() - 1)
        raise BudgetExceededError("too large to exhaust: %s %s" % (text, what))


def compose(*parts: HashEnsemble) -> ComposedEnsemble:
    return ComposedEnsemble(*parts)


def make_ensemble(kind: str, domain_size: int, image_size: int,
                  q: Optional[int] = None) -> HashEnsemble:
    """Factory used by the codec/scenario layer."""
    if kind == "binning":
        return BinningEnsemble(domain_size, image_size)
    if kind in ("linear", "sparse-linear"):
        if q is None:
            raise ConfigurationError("linear ensembles need the field size q")
        n = round(math.log(domain_size, q))
        if q ** n != domain_size:
            raise ConfigurationError("domain size %d is not a power of q=%d" % (domain_size, q))
        m = round(math.log(image_size, q))
        if q ** m != image_size:
            raise ConfigurationError("image size %d is not a power of q=%d" % (image_size, q))
        if kind == "linear":
            return LinearEnsemble(q, n, m)
        return SparseLinearEnsemble(q, n, m)
    raise ConfigurationError("unknown ensemble kind %r" % (kind,))


# -- collision property verification ----------------------------------------------------


def verify_hash_property(ens: HashEnsemble, alpha, beta) -> bool:
    """Exhaustively check the collision-mass bound at (alpha, beta).

    The bound holds when :func:`measure_beta` at alpha is at most beta.
    """
    return measure_beta(ens, alpha) <= Fraction(beta)


def measure_beta(ens: HashEnsemble, alpha) -> Fraction:
    """Smallest beta for which the ensemble satisfies the bound at alpha:
    the sum of the collision probabilities with 0 that exceed alpha/|Im|.

    Every ensemble here needs only one anchor, 0: a binning or uniform
    linear ensemble's collision probability is the same for every pair, a
    sparse one's depends only on the pair's difference over GF(q)^n, and so
    does a composition's (parts sharing the domain q^n share the prime q).
    """
    threshold = Fraction(alpha) / ens.image_size
    masses = (ens.collision_prob(0, w2) for w2 in range(1, ens.domain_size))
    return sum((p for p in masses if p > threshold), Fraction(0))


# -- joint-ensemble lemmas: balanced coloring and collision resistance -------------------


def _label_rows(rows, width: int):
    """Integer matrix of hash-value rows, one label per distinct value.

    Labels are shared by every row and column, so two entries are equal
    exactly when their values are; composed ensembles give tuple values.
    """
    labels: dict = {}
    return np.array([[labels.setdefault(v, len(labels)) for v in row] for row in rows],
                    dtype=np.int64).reshape(-1, width)


def _joint_expectation(ensembles: Sequence[HashEnsemble], points, value, scale: int) -> Fraction:
    """E[value] / scale over independent draws from each ensemble, as a Fraction.

    Ensemble i is seen only through its :meth:`HashEnsemble.point_law` at the
    distinct i-th coordinates of `points`.  The joint rows, the Cartesian
    product of the point-law rows weighted by the product of their integer
    weights, combine into `keys` (one row per joint function, one column per
    point, equal exactly where two points share a joint bin); ``value(keys)``
    gives one integer per row.  More joint rows than the enumeration budget
    raise :class:`BudgetExceededError` before the rows are built (a point law
    too large to build is refused by the ensemble itself).
    """
    coords = [sorted({w[i] for w in points}) for i in range(len(ensembles))]
    laws = [e.point_law(c) for e, c in zip(ensembles, coords)]
    _check_count(math.prod(len(w) for _, w, _ in laws), "joint point-law rows")
    denominator = math.prod(d for _, _, d in laws)
    grid = np.indices([len(w) for _, w, _ in laws]).reshape(len(laws), -1)
    weights = int_array([1], denominator)
    for (_, w, _), rows in zip(laws, grid):
        weights = weights * w.astype(weights.dtype)[rows]
    values = value(_joint_keys(ensembles, [v[rows] for (v, _, _), rows in zip(laws, grid)],
                               coords, points))
    if denominator * int(np.abs(values).max(initial=0)) >= 1 << 63:
        weights, values = weights.astype(object), values.astype(object)
    return Fraction(int(weights @ values), denominator * scale)


def _joint_keys(ensembles, matrices, coords, points):
    """Joint bin of each point under each row: the per-ensemble values at
    the point's coordinates, in mixed radix over the image sizes."""
    dtype = np.int64 if math.prod(e.image_size for e in ensembles) < 1 << 63 else object
    keys = np.zeros((len(matrices[0]), len(points)), dtype=dtype)
    for i, (e, m, c) in enumerate(zip(ensembles, matrices, coords)):
        column = {w: k for k, w in enumerate(c)}
        keys = keys * e.image_size + m[:, [column[w[i]] for w in points]].astype(dtype)
    return keys


def _group_params(ensembles: Sequence[HashEnsemble], subset) -> tuple:
    alpha = Fraction(1)
    beta_plus = Fraction(1)
    for i in subset:
        alpha *= ensembles[i].alpha
        beta_plus *= ensembles[i].beta + 1
    return alpha, beta_plus - 1


def _nonempty_subsets(ensembles: Sequence[HashEnsemble]):
    """Yield (I', I minus I', (alpha, beta) of I', (alpha, beta) of I minus I', |C_I'|).

    I' runs over the nonempty subsets of the ensemble indices I.
    """
    nI = len(ensembles)
    for size in range(1, nI + 1):
        for sub in itertools.combinations(range(nI), size):
            comp = tuple(i for i in range(nI) if i not in sub)
            image = 1
            for i in sub:
                image *= ensembles[i].image_size
            yield (sub, comp, _group_params(ensembles, sub),
                   _group_params(ensembles, comp), image)


def _max_fiber(T, weight, key):
    """Heaviest fiber of T: the largest total weight of points that agree on `key`.

    `key` lists coordinates; the empty key gives the weight of all of T, the
    full key the heaviest single point.
    """
    sums: dict = {}
    for w in T:
        k = tuple(w[i] for i in key)
        sums[k] = sums.get(k, 0) + weight(w)
    return max(sums.values(), default=0)


def _bin_deviation(keys, q, qT: int, image_total: int):
    """Per row, the sum over all joint bins c of |mass_c |C| - Q(T)|.

    `keys` holds each point's joint bin (rows x points), `q` the points'
    integer Q numerators, summing to `qT`; an empty bin counts as Q(T).
    """
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, axis=1)
    cum = np.cumsum(q[order], axis=1)
    last = np.ones(keys.shape, dtype=bool)      # last point of its bin, in key order
    last[:, :-1] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.where(last, cum, 0)
    before = np.zeros_like(ends)                # cumulative mass of the earlier bins
    before[:, 1:] = np.maximum.accumulate(ends, axis=1)[:, :-1]
    deviation = np.where(last, abs((cum - before) * image_total - qT), 0).sum(axis=1)
    return deviation + (image_total - last.sum(axis=1)).astype(q.dtype) * qT


def verify_mbcp(ensembles: Sequence[HashEnsemble], Q: dict, T: set) -> Report:
    """Check the balanced-coloring bound for a joint ensemble, exactly.

    The bound is sqrt(alpha_I - 1 + sum over nonempty I' of
    alpha_{I minus I'} (beta_I' + 1) |C_I'| Qbar_I' / Q(T)), where Qbar_I'
    is the heaviest Q-fiber of T keyed on the I' coordinates (max_w Q(w) at
    I' = I).  The LHS is the expected bin-mass deviation
    sum_c |Q(c)/Q(T) - 1/|C||, computed per joint function as
    sum_c |mass_c |C| - Q(T)| over Q's integer numerators (an empty bin
    counting Q(T)).  Its exact expectation comes from each ensemble's
    :meth:`HashEnsemble.point_law` at T's coordinates, not from the whole
    ensembles, compared as LHS^2 <= RHS^2 in exact rationals.  Joint rows
    beyond the enumeration budget raise :class:`BudgetExceededError`.
    """
    report = Report("mbcp")
    nI = len(ensembles)
    T = [tuple(w) for w in sorted(T)]
    Q = {tuple(w): Fraction(q) for w, q in Q.items()}
    qT = sum(Q.get(w, Fraction(0)) for w in T)
    if qT <= 0:
        raise ConfigurationError("Q must put positive mass on T")
    image_total = 1
    for ens in ensembles:
        image_total *= ens.image_size

    rhs_sq = _group_params(ensembles, range(nI))[0] - 1
    for sub, _, (_, b_sub), (a_comp, _), image in _nonempty_subsets(ensembles):
        qbar = _max_fiber(T, lambda w: Q.get(w, Fraction(0)), sub)
        rhs_sq += a_comp * (b_sub + 1) * image * qbar / qT

    q, scale = integer_scaled([Q.get(w, Fraction(0)) for w in T])
    q_total = int(qT * scale)
    q = int_array(q, 2 * q_total * image_total)
    lhs = _joint_expectation(
        ensembles, T, lambda keys: _bin_deviation(keys, q, q_total, image_total),
        q_total * image_total)
    report.add("balanced-coloring bound", lhs * lhs <= rhs_sq,
               lhs=lhs, rhs=rhs_sq, detail="exact; compared as lhs^2 <= rhs^2")
    return report


def verify_mcrp(ensembles: Sequence[HashEnsemble], T: set, anchor: tuple) -> Report:
    """Check the collision-resistance bound for a joint ensemble, exactly.

    The bound is beta_I + sum over nonempty I' of alpha_I'
    (beta_{I minus I'} + 1) Obar_I' / |C_I'|, where Obar_I' is the largest
    number of points of T that agree on the coordinates outside I'.  LHS is
    the probability that some member of T other than the anchor lands in
    the anchor's joint bin, exact, summed over the joint rows of each
    ensemble's :meth:`HashEnsemble.point_law` at the coordinates of T and
    the anchor, not over the whole ensembles.  Joint rows beyond the
    enumeration budget raise :class:`BudgetExceededError`.
    """
    report = Report("mcrp")
    nI = len(ensembles)
    anchor = tuple(anchor)
    T = [tuple(w) for w in sorted(T)]
    competitors = [w for w in T if w != anchor]
    rhs = _group_params(ensembles, range(nI))[1]
    for _, comp, (a_sub, _), (_, b_comp), image in _nonempty_subsets(ensembles):
        rhs += a_sub * (b_comp + 1) * _max_fiber(T, lambda w: 1, comp) / image

    lhs = _joint_expectation(
        ensembles, competitors + [anchor],
        lambda keys: (keys[:, :-1] == keys[:, -1:]).any(axis=1).astype(np.int64), 1)
    report.add("collision-resistance bound", lhs <= rhs, lhs=lhs, rhs=rhs, detail="exact")
    return report


# -- a product-difference elementary inequality ------------------------------------------


def product_difference_gap(thetas: Sequence) -> tuple:
    """(|prod theta - 1|, sum |theta_l - 1| prod_{l'>l} theta_l') as exact values.

    The right side dominates the left for any nonnegative sequence; callers
    assert lhs <= rhs.
    """
    thetas = [Fraction(t) if not isinstance(t, float) else t for t in thetas]
    prod = 1
    for t in thetas:
        prod = prod * t
    lhs = abs(prod - 1)
    rhs = 0
    for l, t in enumerate(thetas):
        tail = 1
        for t2 in thetas[l + 1:]:
            tail = tail * t2
        rhs = rhs + abs(t - 1) * tail
    return lhs, rhs
