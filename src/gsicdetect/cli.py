"""Command-line front end: build measurements, test states, scan families.

Exit codes: 0 when an evaluation ran (whatever the verdict), 2 on usage
or data errors, 3 when a numeric integrity check tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .criteria import (DECISION_MARGIN, ENTANGLED_DETECTED, INCONCLUSIVE,
                       DetectionReport, bipartite_bound, detect_bipartite,
                       j_bipartite)
from .errors import NumericIntegrityError
from .gsic import (GsicSet, conjugate_gsic, construct_gsic, feasible_t,
                   read_gsic, write_gsic)
from .operator_basis import gell_mann_basis
from .states import (DensityMatrix, bell_diagonal, diagonal_mixture,
                     isotropic, max_entangled, read_state)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsic",
        description="Symmetric informationally complete measurements and "
                    "the entanglement tests they induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a measurement set")
    build.add_argument("--dim", type=int, required=True, help="local dimension")
    group = build.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="mixing parameter")
    group.add_argument("--max-t", action="store_true",
                       help="use the largest feasible mixing parameter")
    build.add_argument("--out", required=True, help="output JSON path")
    build.set_defaults(func=_cmd_build)

    detect = sub.add_parser("detect", help="test a state for entanglement")
    detect.add_argument("--state", required=True,
                        help="state spec: maxent:D | isotropic:D:ALPHA | "
                             "belldiag:D:@WEIGHTS.json | diagmix:D:A1 | "
                             "file:@RHO.json")
    detect.add_argument("--gsic", help="measurement JSON produced by build")
    detect.add_argument("--dim", type=int, help="local dimension cross-check")
    detect.add_argument("--t", type=float, help="mixing parameter")
    detect.add_argument("--max-t", action="store_true",
                        help="use the largest feasible mixing parameter")
    detect.add_argument("--pairing", choices=("conj", "same"), default="conj",
                        help="second-party measurement: conjugate set or the "
                             "set itself (default conj)")
    detect.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    detect.set_defaults(func=_cmd_detect)

    scan = sub.add_parser("scan", help="sweep a one-parameter state family")
    scan.add_argument("--family", required=True,
                      choices=("isotropic", "belldiag-c", "diagmix"))
    scan.add_argument("--dim", type=int, required=True, help="local dimension")
    scan.add_argument("--t", type=float, help="mixing parameter")
    scan.add_argument("--max-t", action="store_true",
                      help="use the largest feasible mixing parameter")
    scan.add_argument("--steps", type=int, default=40, help="grid size")
    scan.add_argument("--csv", required=True, help="output CSV path")
    scan.set_defaults(func=_cmd_scan)
    return parser


def _resolve_t(args, basis) -> tuple[float, str | None]:
    if args.max_t:
        ft = feasible_t(basis)
        return ft.t, ft.cap
    if args.t is None:
        raise ValueError("need --t VALUE or --max-t")
    return args.t, None


def _cmd_build(args) -> int:
    basis = gell_mann_basis(args.dim)
    t, cap = _resolve_t(args, basis)
    g = construct_gsic(basis, t)
    write_gsic(g, args.out)
    print(json.dumps({"d": g.dim, "t": g.t, "a": g.a, "cap": cap},
                     allow_nan=False))
    return 0


def _path_arg(text: str, what: str) -> Path:
    if not text.startswith("@"):
        raise ValueError(f"{what} must be given as @FILE, got {text!r}")
    return Path(text[1:])


def _load_weights(path: Path) -> dict[tuple[int, int], float]:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not data:
        raise ValueError(f"weights file {path} must hold a nonempty object")
    weights = {}
    for key, val in data.items():
        s_txt, sep, t_txt = key.partition(",")
        if not sep:
            raise ValueError(f"weights key {key!r} is not of the form 's,t'")
        weights[(int(s_txt), int(t_txt))] = float(val)
    return weights


def _parse_state_spec(spec: str) -> tuple[DensityMatrix, dict]:
    parts = spec.split(":")
    family = parts[0]
    if family == "maxent" and len(parts) == 2:
        return max_entangled(int(parts[1])), {}
    if family == "isotropic" and len(parts) == 3:
        alpha = float(parts[2])
        return isotropic(int(parts[1]), alpha), {"alpha": alpha}
    if family == "belldiag" and len(parts) == 3:
        weights = _load_weights(_path_arg(parts[2], "belldiag weights"))
        rho = bell_diagonal(int(parts[1]), weights)
        return rho, {"c": max(weights.values())}
    if family == "diagmix" and len(parts) == 3:
        a1 = float(parts[2])
        return diagonal_mixture(int(parts[1]), a1), {"a1": a1}
    if family == "file" and len(parts) == 2:
        return read_state(_path_arg(parts[1], "state file")), {}
    raise ValueError(
        f"bad state spec {spec!r}; expected maxent:D, isotropic:D:ALPHA, "
        f"belldiag:D:@FILE, diagmix:D:A1 or file:@FILE")


def _report_payload(report: DetectionReport, extras: dict) -> dict:
    payload = {"state_label": report.state_label, "d": report.dim,
               "N": report.parties, "t": report.t, "a": report.a,
               "j_value": report.j_value, "bound": report.bound,
               "margin": report.margin, "verdict": report.verdict}
    payload.update(extras)
    return payload


def _cmd_detect(args) -> int:
    rho, extras = _parse_state_spec(args.state)
    if rho.parties != 2:
        raise ValueError(f"detect handles two-party states, got {rho.parties}")
    d = rho.local_dim
    if args.dim is not None and args.dim != d:
        raise ValueError(f"--dim {args.dim} does not match the state dimension {d}")
    if args.gsic:
        p = read_gsic(args.gsic)
        if p.dim != d:
            raise ValueError(
                f"measurement dimension {p.dim} does not match the state "
                f"dimension {d}")
    else:
        basis = gell_mann_basis(d)
        t, _ = _resolve_t(args, basis)
        p = construct_gsic(basis, t)
    q = conjugate_gsic(p) if args.pairing == "conj" else p
    report = detect_bipartite(rho, p, q)
    if args.json:
        print(json.dumps(_report_payload(report, extras), allow_nan=False))
    else:
        print(f"state   {report.state_label}")
        print(f"setup   d={report.dim} N={report.parties} "
              f"t={report.t!r} a={report.a!r} pairing={args.pairing}")
        print(f"j_value {report.j_value!r}")
        print(f"bound   {report.bound!r}")
        print(f"margin  {report.margin!r}")
        print(f"verdict {report.verdict}")
    return 0


def _scan_family(family: str, d: int):
    """Grid range and state factory of a scan family."""
    if family == "isotropic":
        return 0.0, 1.0, lambda x: isotropic(d, x)
    if family == "belldiag-c":
        def make(c: float) -> DensityMatrix:
            rest = (1.0 - c) / (d * d - 1.0)
            weights = {(s, t): rest for s in range(d) for t in range(d)}
            weights[(0, 0)] = c
            return bell_diagonal(d, weights)
        return 1.0 / (d * d), 1.0, make
    if family == "diagmix":
        return 0.0, 1.0, lambda x: diagonal_mixture(d, x)
    raise ValueError(f"unknown scan family {family!r}")


def _cmd_scan(args) -> int:
    if args.steps < 10:
        raise ValueError(f"need at least 10 grid steps, got {args.steps}")
    d = args.dim
    basis = gell_mann_basis(d)
    t, _ = _resolve_t(args, basis)
    if t <= 0:
        raise ValueError("scan needs a positive mixing parameter")
    p = construct_gsic(basis, t)
    q = conjugate_gsic(p)
    bound = bipartite_bound(d, p.a)
    lo, hi, make = _scan_family(args.family, d)

    def margin(x: float) -> float:
        return j_bipartite(make(x), p, q) - bound

    lines = ["param,j_value,bound,margin,verdict"]
    grid = np.linspace(lo, hi, args.steps)
    margins = []
    for x in grid:
        j = j_bipartite(make(float(x)), p, q)
        m = j - bound
        margins.append(m)
        verdict = ENTANGLED_DETECTED if m > DECISION_MARGIN else INCONCLUSIVE
        lines.append(f"{float(x)!r},{j!r},{bound!r},{m!r},{verdict}")

    threshold = float("nan")
    for i in range(1, args.steps):
        if margins[i - 1] <= 0.0 < margins[i]:
            a_lo, a_hi = float(grid[i - 1]), float(grid[i])
            while a_hi - a_lo > 1e-10:
                mid = 0.5 * (a_lo + a_hi)
                if margin(mid) > 0.0:
                    a_hi = mid
                else:
                    a_lo = mid
            threshold = 0.5 * (a_lo + a_hi)
            break
    if args.family == "isotropic":
        guaranteed = 1.0 / (d + 1.0)
    else:
        guaranteed = (1.0 + 1.0 / (p.a * d * d)) / (d + 1.0)
    lines.append(f"threshold,{threshold!r},,,")
    lines.append(f"guaranteed_threshold,{guaranteed!r},,,")
    Path(args.csv).write_text("\n".join(lines) + "\n")
    print(f"threshold {threshold!r}")
    print(f"guaranteed_threshold {guaranteed!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
