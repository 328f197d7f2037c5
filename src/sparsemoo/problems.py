"""Benchmark problem construction and dataset ingestion.

Random biobjective quadratics with controlled conditioning, a worked 2-D
instance with known geometry, sparse logistic regression over standardized
CSV datasets, the instance JSON round trip, and the one reader or writer
of each file format the CLI shares: CSV tables and their cells, JSON.

Randomness comes exclusively from numpy's PCG64 generator seeded through
``numpy.random.default_rng(seed)`` / ``SeedSequence``, so instances are
reproducible bit for bit for a given (n, kappa, seed) under a fixed numpy
build.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import LINE_SAFETY, UNIT_ROUNDOFF, DataError, MultiObjectiveProblem, check_number

_MISSING = {"", "?", "na", "nan"}
# The arrays of a QuadraticInstance, by the names instance JSON gives them.
_ARRAYS = ("Q1", "Q2", "c1", "c2")


def check_instance_entry(entry, source, prefix=""):
    """Check an instance entry ``{"n", "kappa", "s", "seed"}`` or
    ``{"type": "example4", "s"}`` and return its type: ``type``, if given,
    is ``"quadratic"`` or ``"example4"``, each key is present, ``n``, ``s``
    and ``seed`` are JSON integers with ``1 <= s < n`` (n = 2 for example4)
    and ``seed >= 0``, and ``kappa`` is a finite number ``>= 1``.

    Errors name ``source`` and the field, prefixed with ``prefix``.
    """
    def check(field, low, integer=True):
        return check_number(f"{source} '{prefix}{field}'", entry[field], low, integer=integer)

    kind = entry.get("type", "quadratic")
    if kind not in ("quadratic", "example4"):
        raise DataError(f"{source} '{prefix}type' must be 'quadratic' or 'example4', got {kind!r}")
    example4 = kind == "example4"
    missing = [key for key in (("s",) if example4 else ("n", "kappa", "s", "seed"))
               if key not in entry]
    if missing:
        name = f"'{prefix[:-1]}'" if prefix else "instance"
        raise DataError(f"{source} {name} lacks {', '.join(map(repr, missing))}; an instance "
                        "needs 'type': 'example4' with 's', or 'n', 'kappa', 's' and 'seed'")
    n = 2 if example4 else check("n", 2)  # the worked example is 2-D
    if check("s", 1) >= n:
        raise DataError(f"{source} '{prefix}s' must be below n={n}, got {entry['s']}")
    if not example4:
        check("kappa", 1, integer=False)
        check("seed", 0)
    return kind


def instance_name(entry) -> str:
    """File name of an instance entry: ``quad_n<n>_k<kappa>_s<s>_seed<seed>.json``
    (kappa printed as ``%g``) or ``example4_s<s>.json``."""
    if entry.get("type") == "example4":
        return f"example4_s{entry['s']}.json"
    return f"quad_n{entry['n']}_k{entry['kappa']:g}_s{entry['s']}_seed{entry['seed']}.json"


def _read_text(path) -> str:
    """The file ``path`` decoded as UTF-8; bytes that are not UTF-8 raise
    :class:`DataError` naming the path and the byte offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start} is not UTF-8 text ({exc.reason})") from None


def read_json(path):
    """The JSON document in ``path``; a syntax error raises :class:`DataError`
    naming ``path:line:col``, as does text that is not UTF-8."""
    try:  # universal newlines, as text-mode open() reads: error lines count '\r' too
        return json.load(io.StringIO(_read_text(path), newline=None))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def write_json(path, doc, **layout):
    """Write ``doc`` to ``path`` as JSON with sorted keys, ``layout`` passed
    to :func:`json.dump`, and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, **layout)
        fh.write("\n")


def read_table(path):
    """A CSV file as ``(header, [(line, cells), ...])``, one entry per data row.

    ``line`` is the row's 1-based record number, the header being 1.  An
    empty file, or a row whose cell count differs from the header's, raises
    :class:`DataError` naming ``path:line``; text that is not UTF-8 names
    ``path`` and the byte offset.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}:1: empty file, expected a header row")
    rows = list(enumerate(reader, start=2))
    for line, cells in rows:
        if len(cells) != len(header):
            raise DataError(f"{path}:{line}: expected {len(header)} cells, got {len(cells)}")
    return header, rows


def parse_cell(path, line, column, cell) -> float:
    """The text ``cell`` of ``column`` as a finite float; otherwise
    :class:`DataError` naming ``path:line``, the cell and the column."""
    try:
        if math.isfinite(value := float(cell)):
            return value
    except ValueError:
        pass
    raise DataError(f"{path}:{line}: cell {cell!r} in column {column!r} is not a finite number")


@dataclass(frozen=True)
class QuadraticInstance:
    """Biobjective quadratic ``f_j(x) = 0.5 x^T Q_j x - c_j^T x``.

    Both matrices share the condition number ``kappa`` (eigenvalues
    geometrically spaced on [1, kappa]), so ``L(f_1) = L(f_2) = kappa``.
    """

    Q1: np.ndarray
    Q2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    kappa: float
    seed: int

    def __post_init__(self):
        for name in _ARRAYS:
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.c1.size

    def problem(self) -> MultiObjectiveProblem:
        Q1, Q2, c1, c2 = self.Q1, self.Q2, self.c1, self.c2

        # ndarray.dot is the BLAS call ``@`` makes, with less dispatch; the
        # float64 scalars round as Python floats would
        def ev(x):
            return np.array([
                0.5 * x.dot(Q1.dot(x)) - c1.dot(x),
                0.5 * x.dot(Q2.dot(x)) - c2.dot(x),
            ])

        def grad(x):
            return np.array([Q1.dot(x) - c1, Q2.dot(x) - c2])

        return MultiObjectiveProblem(
            n=self.n, m=2, evaluate=ev, gradient=grad,
            lipschitz=np.array([self.kappa, self.kappa]),
            line=_quadratic_line(np.stack([Q1, Q2]), np.stack([c1, c2])),
        )


def _quadratic_line(Qs, cs):
    """Exact line model of ``f_j(x) = 0.5 x^T Q_j x - c_j^T x`` as
    :meth:`QuadraticInstance.problem` evaluates it (the ``line`` contract of
    :class:`MultiObjectiveProblem`); ``Qs`` is ``(m, n, n)``, ``cs`` ``(m, n)``.

    Along ``x + a d`` each ``f_j`` changes by ``a s_j + a^2 q_j / 2`` with
    ``s_j = x^T Q_j d - c_j^T d`` and ``q_j = d^T Q_j d``, so ``lo = hi = q``;
    one product ``Q_j d`` per objective gives both.

    Rounding bound, in ``u = 2^-53``.  A k-term dot product in any summation
    order errs by at most ``g_k sum|terms|``, ``g_k = k u / (1 - k u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    sec. 3.1).  Let ``A_j`` be the largest row sum of ``|Q_j|`` (so
    ``|v|^T |Q_j| |w| <= A_j ||v|| ||w||``), ``C_j = ||c_j||``,
    ``R = ||x|| + ||d||`` and ``M_j = A_j R^2 / 2 + C_j R``.  Every point z
    a search evaluates is ``x`` or ``x + a d`` rounded, ``||z|| <= (1 + 2u) R``:

    * one evaluation ``0.5 * z.(Q_j z) - c_j.z`` errs by ``<= g_{2n+1} M_j (1 + 5u)``;
    * rounding ``x + a d`` to z moves ``f_j`` by ``<= 4.01 u M_j``;
    * ``s_j`` and ``q_j`` as computed move the model by
      ``a |ds_j| + a^2 |dq_j| / 2 <= g_{2n+1} M_j``.

    Together, for ``n u < 1e-3``, at most ``(7 n + 8) u M_j``.  ``err_j`` is
    ``LINE_SAFETY`` times that, which also absorbs the rounding of ``A_j``,
    ``C_j``, ``R`` and ``err_j`` themselves.  Since ``|f_j(z)| <= M_j``,
    ``err_j >= 8 u |f_j(z)|`` as the contract asks.
    """
    m, n = cs.shape
    mn = m * n
    B = np.vstack([Qs.reshape(mn, n), cs])  # one product gives every Q_j d and c_j.d
    A = np.abs(Qs).sum(axis=2).max(axis=1).tolist()
    C = np.sqrt((cs * cs).sum(axis=1)).tolist()
    k = LINE_SAFETY * (7 * n + 8) * UNIT_ROUNDOFF

    def line(x, d):
        Bd = B.dot(d)
        Qd = Bd[:mn].reshape(m, n)
        q = Qd.dot(d).tolist()
        R = math.sqrt(x.dot(x)) + math.sqrt(d.dot(d))
        slope = [a - b for a, b in zip(Qd.dot(x).tolist(), Bd[mn:].tolist())]
        return slope, q, q, [k * R * (0.5 * a * R + c) for a, c in zip(A, C)]

    return line


def generate_quadratic(n: int, kappa: float, seed: int) -> QuadraticInstance:
    """Random biobjective quadratic with condition number ``kappa``.

    Each ``Q_j = R D R^T`` with R the orthogonal factor of a seeded Gaussian
    matrix and D geometrically spaced on [1, kappa] (both extremes attained,
    so kappa = 1 yields the exact identity).  Linear terms are uniform on
    [-1, 1) via ``2 u - 1``.  Draw order: Gaussian for Q1, Gaussian for Q2,
    then c1, then c2, from ``default_rng(seed)``.
    """
    n = check_number("n", n, 2, integer=True)
    kappa = float(check_number("kappa", kappa, 1))
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        A = rng.standard_normal((n, n))
        if kappa == 1.0:
            mats.append(np.eye(n))
            continue
        R, _ = np.linalg.qr(A)
        D = np.geomspace(1.0, kappa, n)
        Q = (R * D) @ R.T
        mats.append(0.5 * (Q + Q.T))  # exact symmetry
    c1 = 2.0 * rng.random(n) - 1.0
    c2 = 2.0 * rng.random(n) - 1.0
    return QuadraticInstance(Q1=mats[0], Q2=mats[1], c1=c1, c2=c2,
                             kappa=kappa, seed=int(seed))


def example_biobjective() -> MultiObjectiveProblem:
    """The worked 2-D instance: squared distances to (3, 2.5) and (1, 0.5).

    Under a cardinality bound of one, its optimal solutions sit on the first
    axis with x1 in [1, 3] (global) and on the second axis with x2 in
    [0.5, 2.5] (local).  Both gradients are 1-Lipschitz.
    """
    a1 = np.array([3.0, 2.5])
    a2 = np.array([1.0, 0.5])

    def ev(x):
        d1, d2 = x - a1, x - a2
        return np.array([0.5 * d1.dot(d1), 0.5 * d2.dot(d2)])

    def grad(x):
        return np.array([x - a1, x - a2])

    # Exact line model: f_j(x + a d) - f_j(x) = a (x - a_j).d + a^2 ||d||^2 / 2.
    # Rounding bound in u = 2^-53 (see _quadratic_line for g_k), with
    # D_j = ||x - a_j|| + ||d|| and R = ||x|| + ||d||: each evaluation of
    # 0.5 * (z - a_j).(z - a_j) errs by <= (1 + 0.51 n) u ||z - a_j||^2 (1.001),
    # where ||z - a_j|| <= D_j + 2.01 u R; rounding x + a d to z moves f_j by
    # <= 2.01 u D_j R + 2.1 u^2 R^2; the computed slope and curvature move the
    # model by <= 0.51 (n + 1) u D_j^2.  Together at most
    # u ((1.6 n + 3) D_j^2 + 2.1 D_j R + 2.2 u R^2); err_j is LINE_SAFETY
    # times u ((2n + 3) D_j^2 + 3 D_j R + 3 u R^2), 2n + 3 = 7 here, and at
    # least 8 u |f_j| along the segment.
    k = LINE_SAFETY * UNIT_ROUNDOFF

    def line(x, d):
        nd = math.sqrt(d.dot(d))
        R = math.sqrt(x.dot(x)) + nd
        slope, err = [], []
        for a in (a1, a2):
            diff = x - a
            D = math.sqrt(diff.dot(diff)) + nd
            slope.append(float(diff.dot(d)))
            err.append(k * (7.0 * D * D + 3.0 * D * R + 3.0 * UNIT_ROUNDOFF * R * R))
        q = [float(d.dot(d))] * 2
        return slope, q, q, err

    return MultiObjectiveProblem(n=2, m=2, evaluate=ev, gradient=grad,
                                 lipschitz=np.array([1.0, 1.0]), line=line)


def _power_spectral_norm(R: np.ndarray) -> float:
    """Largest eigenvalue of R^T R by power iteration.

    Iteration stops once successive Rayleigh quotients agree to a relative
    1e-8; that is the stopping rule, not the error.  A Rayleigh quotient
    never exceeds the largest eigenvalue, so the estimate is a lower bound
    (6.9e-8 below the exact value, relative, on ``synth_margin_b``).
    """
    n = R.shape[1]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(10_000):
        w = R.T @ (R @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ (R.T @ (R @ v_new)))
        if abs(lam_new - lam) <= 1e-8 * max(1.0, abs(lam_new)):
            return lam_new
        lam, v = lam_new, v_new
    return lam


def logistic_problem(R: np.ndarray, t: np.ndarray) -> MultiObjectiveProblem:
    """Biobjective sparse logistic regression: mean logistic loss vs 0.5||w||^2.

    ``R`` holds one sample per row, labels ``t`` are +-1.  The loss gradient
    is ``-(1/N) sum_i t_i sigma(-t_i w^T r_i) r_i``; the cached Lipschitz
    constants are ``(||R^T R||_2 / N, 1)``, the first estimated from below
    by :func:`_power_spectral_norm`.

    The ``line`` model: the regularizer is exact (slope ``w.d``, curvature
    ``||d||^2``).  The loss has slope ``grad f_1(w).d`` and curvature in
    ``[0, L1 ||d||^2]``: its Hessian is ``(1/N) R^T diag(sigma') R`` with
    ``sigma' <= 1/4``, so the declared ``L1 = lambda_max(R^T R) / N`` is 4x
    the real curvature bound, which covers the power-iteration
    underestimate.  Rounding bounds, in ``u = 2^-53`` with ``g_k`` as in
    :func:`_quadratic_line`, ``rho`` the largest sample norm,
    ``W = ||w|| + ||d||``, ``P = rho W`` and libm's ``exp`` and ``log1p``
    within 2 ulp (glibc's are within 1):

    * loss: a margin errs by ``<= g_n rho ||w||`` and the loss is
      1-Lipschitz in each margin; ``logaddexp`` rounds each term by
      ``<= 10 u`` relative; the sum and the division add ``g_N + u``; each
      term is at most ``log 2 + P``.  One evaluation errs by
      ``<= (n + N + 12) 1.002 u (log 2 + P)``, rounding ``w + a d`` moves
      the loss by ``<= 2.01 u P`` (it is ``rho``-Lipschitz), and the
      computed slope errs by ``<= 1.002 u ((n + N + 8) P + n P^2 / 16)``.
      Together ``<= u ((3.01 (n + N) + 35)(log 2 + P) + 0.07 n P^2)``;
      ``err_1`` is ``LINE_SAFETY`` times
      ``u ((4 (n + N) + 40)(log 2 + P) + n P^2 / 8)``.
    * regularizer: two evaluations ``<= g_n W^2``, rounding ``w + a d``
      ``<= 2.01 u W^2``, the model ``<= g_n W^2 / 2``: together
      ``<= (1.51 n + 2.02) u W^2``; ``err_2`` is ``LINE_SAFETY`` times
      ``(2n + 3) u W^2``.

    Both are at least ``8 u |f_j|`` along the segment.
    """
    R = np.asarray(R, dtype=float)
    t = np.asarray(t, dtype=float)
    if R.ndim != 2:
        raise DataError("sample matrix must be 2-D")
    N, n = R.shape
    if t.shape != (N,):
        raise DataError(f"labels must have shape ({N},), got {t.shape}")
    if not np.all(np.abs(t) == 1.0):
        raise DataError("labels must be -1 or +1")
    L1 = _power_spectral_norm(R) / N
    from scipy.special import expit  # here, so quadratic-only runs never load scipy

    RT = R.T

    def ev(w):
        margins = t * R.dot(w)
        # the sum and division np.mean performs, without its dispatch
        return np.array([np.logaddexp(0.0, -margins).sum() / N, 0.5 * w.dot(w)])

    def grad(w):
        margins = t * R.dot(w)
        g1 = -RT.dot(t * expit(-margins)) / N
        return np.array([g1, w])

    rho = float(np.sqrt((R * R).sum(axis=1)).max())
    k1 = LINE_SAFETY * UNIT_ROUNDOFF * (4 * (n + N) + 40)
    k2 = LINE_SAFETY * UNIT_ROUNDOFF * (2 * n + 3)
    log2 = math.log(2.0)

    def line(w, d):
        s1 = -(t * expit(-(t * R.dot(w)))).dot(R.dot(d)) / N
        q = float(d.dot(d))
        W = math.sqrt(w.dot(w)) + math.sqrt(q)
        P = rho * W
        err1 = k1 * (log2 + P) + LINE_SAFETY * UNIT_ROUNDOFF * n * P * P / 8.0
        return [float(s1), float(w.dot(d))], [0.0, q], [L1 * q, q], [err1, k2 * W * W]

    return MultiObjectiveProblem(n=n, m=2, evaluate=ev, gradient=grad,
                                 lipschitz=np.array([L1, 1.0]), line=line)


def load_dataset(path, label_column: str):
    """Read a numeric CSV into a standardized sample matrix and +-1 labels.

    Rows with any missing cell ('', '?', 'NA', 'NaN') are dropped and their
    count reported as a warning.  Feature columns are standardized to zero
    mean and unit population standard deviation; a constant column becomes
    all zeros (with a warning).  Labels may be {0, 1} (mapped to {-1, +1})
    or already {-1, +1}.  Every other cell must be a finite number, or
    :class:`DataError` names its row and column.
    """
    header, table = read_table(path)
    header = [h.strip() for h in header]
    if label_column not in header:
        raise DataError(f"{path}: no column named {label_column!r} in header")
    label_idx = header.index(label_column)
    rows = []
    dropped = 0
    for line, raw in table:
        cells = [c.strip() for c in raw]
        if any(c.lower() in _MISSING for c in cells):
            dropped += 1
            continue
        rows.append([parse_cell(path, line, col, cell) for col, cell in zip(header, cells)])
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with missing values", stacklevel=2)
    if not rows:
        raise DataError(f"{path}: no usable rows")
    data = np.array(rows, dtype=float)
    labels = data[:, label_idx]
    feats = np.delete(data, label_idx, axis=1)

    values = set(np.unique(labels).tolist())
    if values <= {0.0, 1.0}:
        t = np.where(labels > 0.5, 1.0, -1.0)
    elif values <= {-1.0, 1.0}:
        t = labels.copy()
    else:
        raise DataError(f"{path}: labels must be in {{0,1}} or {{-1,1}}, got {sorted(values)}")

    mean = feats.mean(axis=0)
    sd = feats.std(axis=0)  # population standard deviation
    constant = sd == 0.0
    if np.any(constant):
        names = [h for h, c in zip([h for i, h in enumerate(header) if i != label_idx], constant) if c]
        warnings.warn(f"{path}: constant columns standardized to zero: {names}", stacklevel=2)
    sd_safe = np.where(constant, 1.0, sd)
    standardized = (feats - mean) / sd_safe
    standardized[:, constant] = 0.0
    return standardized, t


def save_instance(path, entry) -> None:
    """Write the instance an entry describes as JSON, creating the parent
    directory; the entry must pass :func:`check_instance_entry`.

    Quadratic schema: ``{"type": "quadratic", "n", "kappa", "seed", "s",
    "Q1", "Q2", "c1", "c2"}`` with matrices row-major and full, generated by
    :func:`generate_quadratic`.  The worked example serializes as
    ``{"type": "example4", "s"}``.
    """
    if check_instance_entry(entry, f"{path}:") == "example4":
        doc = {"type": "example4", "s": int(entry["s"])}
    else:
        inst = generate_quadratic(entry["n"], entry["kappa"], entry["seed"])
        doc = {"type": "quadratic", "n": inst.n, "kappa": inst.kappa, "seed": inst.seed,
               "s": int(entry["s"]), **{name: getattr(inst, name).tolist() for name in _ARRAYS}}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_json(path, doc, separators=(",", ":"))


def _quadratic_from_doc(path, doc):
    """``(QuadraticInstance, s)`` from an instance document whose entry keys
    passed :func:`check_instance_entry`.

    Each ``Q_j`` must be a finite symmetric ``(n, n)`` matrix and each
    ``c_j`` a finite ``(n,)`` vector; ``kappa`` is the Lipschitz constant
    the solvers rely on, so it may not undercut the largest eigenvalue of either
    ``Q_j`` (beyond a relative 1e-9).  Violations raise :class:`DataError`.
    """
    n, s, kappa, seed = doc["n"], doc["s"], float(doc["kappa"]), doc["seed"]
    try:
        arrays = {name: np.array(doc[name], dtype=float) for name in _ARRAYS}
    except KeyError as exc:
        raise DataError(f"{path}: quadratic instance lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed quadratic instance: {exc}") from None
    for name, arr in arrays.items():
        shape = (n, n) if name.startswith("Q") else (n,)
        if arr.shape != shape:
            raise DataError(f"{path}: {name} has shape {arr.shape}, expected {shape} for n={n}")
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: {name} has non-finite entries")
    for name in ("Q1", "Q2"):
        Q = arrays[name]
        if np.abs(Q - Q.T).max() > 1e-12 * max(1.0, np.abs(Q).max()):
            raise DataError(f"{path}: {name} is not symmetric")
        top = float(np.linalg.eigvalsh(Q).max())
        if not kappa >= top - 1e-9 * abs(top):
            raise DataError(f"{path}: kappa={kappa!r} is below the largest eigenvalue {top!r} of {name}")
    return QuadraticInstance(**arrays, kappa=kappa, seed=seed), s


def load_instance(path):
    """Load an instance JSON; returns ``(problem, info dict)``.

    ``info`` carries at least ``type``, ``n``, ``s`` and ``family``.  A
    document that breaks :func:`check_instance_entry` raises
    :class:`DataError` naming the file and the field.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or "type" not in doc:
        raise DataError(f"{path}: an instance file must be a JSON object with a 'type'")
    if check_instance_entry(doc, f"{path}:") == "example4":
        return example_biobjective(), {
            "type": "example4", "n": 2, "s": doc["s"], "family": "quadratic"}
    inst, s = _quadratic_from_doc(path, doc)
    return inst.problem(), {
        "type": "quadratic", "n": inst.n, "s": s,
        "kappa": inst.kappa, "seed": inst.seed, "family": "quadratic",
    }
