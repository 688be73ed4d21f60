"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up (everything built
before the first op), with three methods:

  inputs(cls, rng)      draw one op's inputs for op class `cls` (untimed)
  op(spec)              the user-level action that is timed
  check(spec, result)   the correctness check of that op (untimed)
  tally(result)         counts for the traced ratios (default: none)

A round runs every entry of `classes` once, in an order drawn from the
seed, so every run holds equal counts of each class.  Package functions
are always looked up through their module at call time, never bound at
import, so that the tracer's rebinding reaches every call the benchmark
makes.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import gsicdetect as gd
from gsicdetect import cli

# Relative agreement of J with its closed form and with brute_force_j.
# Observed worst cases are about 1e-14; float64 sums over d**6 terms can
# drift further, so the check allows a factor of 100.
J_REL_TOL = 1e-12
# gsic.feasible_t bisects the positivity boundary until the bracket is
# narrower than this, so the computed cap is within it of the true one.
T_CAP_TOL = 1e-12
# The scan bisection stops at a 1e-10 bracket and reports its midpoint.
THRESHOLD_TOL = 1e-9
# Entries of the measurement file against P_j rebuilt from the basis.
OPERATOR_TOL = 1e-14


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _fidelity(rho: np.ndarray, d: int) -> float:
    """<phi+| rho |phi+> for the canonical maximally entangled vector."""
    return float(np.einsum("iijj->", rho.reshape(d, d, d, d)).real) / d


def _ginibre(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank two-qudit density matrix G G^dagger / Tr."""
    n = d * d
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


class Workload:
    """Defaults shared by the workloads."""

    # Rounds in the fixed op list of one traced pass.
    trace_rounds = 1

    def tally(self, result) -> dict[str, int]:
        """Counts of one op's outcome that feed the per-layer ratios."""
        return {}


class Build(Workload):
    """`gsic build --max-t` through cli.main, then read_gsic of the file.

    The only workload where feasible_t, construct_gsic, validate_gsic and
    the JSON write/read run per op; nothing is shared between ops.
    """

    classes = (3, 4, 6, 8, 12, 16)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self._reference: dict[int, tuple[np.ndarray, float]] = {}

    def inputs(self, d: int, rng: np.random.Generator) -> dict:
        return {"d": d, "out": self.workdir / f"gsic-d{d}.json"}

    def op(self, spec: dict):
        code, out = _run_cli(["build", "--dim", str(spec["d"]), "--max-t",
                              "--out", str(spec["out"])])
        return code, out, gd.read_gsic(spec["out"])

    def reference(self, d: int) -> tuple[np.ndarray, float]:
        """M_j with P_j = I/d^2 + t M_j, and the cap on t.

        The cap is min((d(d+1))^-1.5, 1/(d^2 |min_j lambda_min(M_j)|)),
        from one batched eigvalsh instead of the package's bisection.
        """
        if d not in self._reference:
            gens = gd.gell_mann_basis(d).generators
            total = gens.sum(axis=0)
            m = np.empty((d * d, d, d), dtype=complex)
            m[:-1] = total - d * (d + 1.0) * gens
            m[-1] = (d + 1.0) * total
            lam = float(np.linalg.eigvalsh(m)[:, 0].min())
            cap = min((d * (d + 1.0)) ** -1.5, 1.0 / (d * d * abs(lam)))
            self._reference[d] = m, cap
        return self._reference[d]

    def check(self, spec: dict, result) -> bool:
        code, out, g = result
        d = spec["d"]
        if code != 0:
            return False
        printed = json.loads(out)
        m, cap = self.reference(d)
        return ((printed["d"], printed["t"], printed["a"]) == (g.dim, g.t, g.a)
                and g.dim == d
                and abs(g.t - cap) <= T_CAP_TOL
                and abs(g.a - (1.0 / d**3 + g.t**2 * (d - 1.0) * (d + 1.0) ** 3))
                <= 1e-15
                and float(np.abs(g.operators - (np.eye(d) / d**2 + g.t * m)).max())
                <= OPERATOR_TOL)


DETECT_SOURCES = ("isotropic", "bell_diagonal", "diagonal_mixture",
                  "random_separable", "file", "ginibre")
STATE_TERMS = 4


class Detect(Workload):
    """A stream of two-party states tested by detect_bipartite and ppt_test.

    The measurement pair for each d is built once, in set-up, and reused
    by every op; j_bipartite does most of the work.
    """

    dims = (4, 8, 12, 16)
    classes = tuple((d, src) for d in dims for src in DETECT_SOURCES)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 0])
        self.pairs = {}
        self.files: dict[int, list[tuple[Path, bool]]] = {}
        for d in self.dims:
            basis = gd.gell_mann_basis(d)
            p = gd.construct_gsic(basis, gd.feasible_t(basis).t)
            self.pairs[d] = (p, gd.conjugate_gsic(p))
            # Three files per d: isotropic, separable by construction, Ginibre.
            alpha = float(rng.random())
            stored = [
                (gd.isotropic(d, alpha), alpha <= 1.0 / (d + 1.0)),
                (gd.random_separable(d, 2, STATE_TERMS,
                                     int(rng.integers(2**31))), True),
                (gd.DensityMatrix(local_dim=d, parties=2,
                                  matrix=_ginibre(d, rng)), False),
            ]
            self.files[d] = []
            for k, (rho, separable) in enumerate(stored):
                path = workdir / f"state-d{d}-{k}.json"
                gd.write_state(rho, path)
                self.files[d].append((path, separable))

    def inputs(self, cls: tuple[int, str], rng: np.random.Generator) -> dict:
        d, src = cls
        spec = {"d": d, "source": src, "separable": False}
        if src == "isotropic":
            spec["alpha"] = float(rng.random())
            spec["separable"] = spec["alpha"] <= 1.0 / (d + 1.0)
        elif src == "bell_diagonal":
            w = rng.dirichlet(np.ones(d * d))
            spec["weights"] = {(s, t): float(w[s * d + t])
                               for s in range(d) for t in range(d)}
        elif src == "diagonal_mixture":
            spec["a1"] = float(rng.random())
        elif src == "random_separable":
            spec["seed"] = int(rng.integers(2**31))
            spec["separable"] = True
        elif src == "file":
            spec["path"], spec["separable"] = self.files[d][int(rng.integers(3))]
        else:
            spec["matrix"] = _ginibre(d, rng)
        return spec

    def op(self, spec: dict):
        d, src = spec["d"], spec["source"]
        if src == "isotropic":
            rho = gd.isotropic(d, spec["alpha"])
        elif src == "bell_diagonal":
            rho = gd.bell_diagonal(d, spec["weights"])
        elif src == "diagonal_mixture":
            rho = gd.diagonal_mixture(d, spec["a1"])
        elif src == "random_separable":
            rho = gd.random_separable(d, 2, STATE_TERMS, spec["seed"])
        elif src == "file":
            rho = gd.read_state(spec["path"])
        else:
            rho = gd.DensityMatrix.from_matrix(spec["matrix"], d, 2)
        p, q = self.pairs[d]
        return rho, gd.detect_bipartite(rho, p, q), gd.ppt_test(rho)

    def check(self, spec: dict, result) -> bool:
        rho, report, ppt = result
        d = spec["d"]
        t = self.pairs[d][0].t
        closed = 1.0 / d**2 + t * t * d * d * (d + 1.0) ** 2 * (
            d * _fidelity(rho.matrix, d) - 1.0 / d)
        flagged = report.verdict == gd.ENTANGLED_DETECTED
        return (abs(report.j_value - closed) <= J_REL_TOL * abs(closed)
                and (ppt.npt or not flagged)
                and not (spec["separable"] and flagged))

    def tally(self, result) -> dict[str, int]:
        return {"flagged": int(result[1].verdict == gd.ENTANGLED_DETECTED)}


SCAN_FAMILIES = ("isotropic", "belldiag-c", "diagmix")
SCAN_DIMS = (3, 6, 8)
SCAN_STEPS = 40


class Scan(Workload):
    """`gsic scan --t T --steps 40` through cli.main.

    T is the cap computed once in set-up and passed explicitly, so that
    feasible_t stays out of the ops.
    """

    classes = tuple((f, d) for f in SCAN_FAMILIES for d in SCAN_DIMS)
    trace_rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.t = {d: gd.feasible_t(gd.gell_mann_basis(d)).t for d in SCAN_DIMS}

    def inputs(self, cls: tuple[str, int], rng: np.random.Generator) -> dict:
        family, d = cls
        return {"family": family, "d": d,
                "csv": self.workdir / f"scan-{family}-d{d}.csv"}

    def op(self, spec: dict):
        return _run_cli(["scan", "--family", spec["family"],
                         "--dim", str(spec["d"]), "--t", repr(self.t[spec["d"]]),
                         "--steps", str(SCAN_STEPS), "--csv", str(spec["csv"])])

    @staticmethod
    def _threshold(out: str) -> float:
        for line in out.splitlines():
            key, _, value = line.partition(" ")
            if key == "threshold":
                return float(value)
        return float("nan")

    def check(self, spec: dict, result) -> bool:
        code, out = result
        d = spec["d"]
        exact = 1.0 / (d + 1.0) if spec["family"] == "isotropic" else 1.0 / d
        rows = spec["csv"].read_text().splitlines()
        return (code == 0
                and abs(self._threshold(out) - exact) <= THRESHOLD_TOL
                and len(rows) == SCAN_STEPS + 3)

    def tally(self, result) -> dict[str, int]:
        code, out = result
        return {"thresholds": int(code == 0
                                  and np.isfinite(self._threshold(out)))}


MULTI_TERMS = 4
# Share of multiparty ops also checked against brute_force_j.
BRUTE_SHARE = 0.05


class Multiparty(Workload):
    """j_multipartite on seeded random separable states, against the bound.

    The only user of j_multipartite and of the N >= 3 einsum; it bypasses
    j_bipartite and feasible_t.
    """

    classes = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5))
    trace_rounds = 40

    def __init__(self, seed: int, workdir: Path):
        self.sets = {}
        for d in (2, 3):
            basis = gd.gell_mann_basis(d)
            self.sets[d] = gd.construct_gsic(basis, gd.feasible_t(basis).t)

    def inputs(self, cls: tuple[int, int], rng: np.random.Generator) -> dict:
        d, n = cls
        return {"d": d, "n": n, "seed": int(rng.integers(2**31)),
                "brute": bool(rng.random() < BRUTE_SHARE)}

    def op(self, spec: dict):
        d, n = spec["d"], spec["n"]
        g = self.sets[d]
        rho = gd.random_separable(d, n, MULTI_TERMS, spec["seed"])
        j = gd.j_multipartite(rho, [g] * n)
        return rho, j, gd.multipartite_bound(d, [g.a] * n)

    def check(self, spec: dict, result) -> bool:
        rho, j, bound = result
        if not j <= bound:
            return False
        if spec["brute"]:
            ref = gd.brute_force_j(rho, [self.sets[spec["d"]]] * spec["n"])
            return abs(j - ref) <= J_REL_TOL * abs(ref)
        return True


WORKLOADS = {"build": Build, "detect": Detect, "scan": Scan,
             "multiparty": Multiparty}
