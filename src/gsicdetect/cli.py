"""Command-line front end: build measurements, test states, scan families.

Exit codes: 0 when an evaluation ran (whatever the verdict), 2 on usage
or data errors, 3 when a numeric integrity check tripped, 141 when the
reader of stdout closed it early (128 + SIGPIPE, as a shell reports a
writer that the signal ended).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .criteria import (SCAN_FAMILIES, DetectionReport, detect_bipartite,
                       scan_family, verdict)
from .errors import MAX_DIM, NumericIntegrityError, check_steps
from .gsic import (GsicSet, conjugate_gsic, construct_gsic, feasible_t,
                   read_gsic, write_gsic)
from .operator_basis import gell_mann_basis
from .states import (DensityMatrix, _parse_json, bell_diagonal, decode_float,
                     diagonal_mixture, isotropic, max_entangled, read_state)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of the process.

    parse_args returns a fresh namespace on every call, so one parser
    serves every call of main.
    """
    parser = argparse.ArgumentParser(
        prog="gsic",
        description="Symmetric informationally complete measurements and "
                    "the entanglement tests they induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a measurement set")
    build.add_argument("--dim", type=int, required=True, help="local dimension")
    _add_t_arguments(build)
    build.add_argument("--out", required=True, help="output file path")
    build.set_defaults(func=_cmd_build)

    detect = sub.add_parser("detect", help="test a state for entanglement")
    detect.add_argument("--state", required=True,
                        help="state spec: maxent:D | isotropic:D:ALPHA | "
                             "belldiag:D:@WEIGHTS.json | diagmix:D:A1 | "
                             "file:@STATE; the path after @ may hold colons")
    _add_t_arguments(detect).add_argument(
        "--gsic", help="measurement file written by build")
    detect.add_argument("--dim", type=int, help="local dimension cross-check")
    detect.add_argument("--pairing", choices=("conj", "same"), default="conj",
                        help="second-party measurement: conjugate set or the "
                             "set itself (default conj); same never flags a "
                             "state: its witness is t^2 c^2 (SWAP - I/d), and "
                             "its ceiling sits at SWAP's top eigenvalue")
    detect.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    detect.set_defaults(func=_cmd_detect)

    scan = sub.add_parser("scan", help="sweep a one-parameter state family")
    scan.add_argument("--family", required=True, choices=tuple(SCAN_FAMILIES))
    scan.add_argument("--dim", type=int, required=True, help="local dimension")
    _add_t_arguments(scan)
    scan.add_argument("--steps", type=int, default=40, help="grid size")
    scan.add_argument("--csv", required=True, help="output CSV path")
    scan.set_defaults(func=_cmd_scan)
    return parser


def _add_t_arguments(parser: argparse.ArgumentParser):
    """Add --t and --max-t as one required exclusive group; return it."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="mixing parameter")
    group.add_argument("--max-t", action="store_true",
                       help="use the largest feasible mixing parameter")
    return group


def _dim(value) -> int:
    """A local dimension from command-line text, refused above MAX_DIM."""
    d = int(value)
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds MAX_DIM = {MAX_DIM}, the "
                         f"largest one accepted")
    return d


def _gsic_from_args(args, d: int) -> tuple[GsicSet, str | None]:
    """Measurement set at --t or --max-t, and the cap kind for --max-t."""
    basis = gell_mann_basis(_dim(d))
    if args.max_t:
        t, cap = feasible_t(basis)
    else:
        t, cap = args.t, None
    return construct_gsic(basis, t), cap


def _cmd_build(args) -> int:
    g, cap = _gsic_from_args(args, args.dim)
    write_gsic(g, args.out)
    print(json.dumps({"d": g.dim, "t": g.t, "a": g.a, "cap": cap},
                     allow_nan=False))
    return 0


def _path_arg(text: str, what: str) -> Path:
    if not text.startswith("@"):
        raise ValueError(f"{what} must be given as @FILE, got {text!r}")
    return Path(text[1:])


def _load_weights(path: Path) -> dict[tuple[int, int], float]:
    weights = {}
    try:
        data = _parse_json(path.read_bytes())
        if not isinstance(data, dict) or not data:
            raise ValueError("the file must hold a nonempty object")
        for key, val in data.items():
            s_txt, _, t_txt = key.partition(",")
            if not all(txt.isascii() and txt.isdigit()
                       for txt in (s_txt, t_txt)):
                raise ValueError(f"key {key!r} is not of the form 's,t' with s "
                                 "and t ASCII digits")
            label = (int(s_txt), int(t_txt))
            if label in weights:
                raise ValueError(f"key {key!r} names label {label} again")
            try:
                weights[label] = decode_float(val)
            except ValueError as exc:
                raise ValueError(f"weight of {key!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"malformed weights file {path}: {exc}") from exc
    return weights


def _parse_state_spec(spec: str) -> tuple[DensityMatrix, dict]:
    head, at, path = spec.partition(":@")  # a path may hold colons
    parts = head.split(":")
    if at:
        parts.append("@" + path)
    family = parts[0]
    if family == "maxent" and len(parts) == 2:
        return max_entangled(_dim(parts[1])), {}
    if family == "isotropic" and len(parts) == 3:
        d, alpha = _dim(parts[1]), float(parts[2])
        return isotropic(d, alpha), {"alpha": alpha}
    if family == "belldiag" and len(parts) == 3:
        d = _dim(parts[1])
        weights = _load_weights(_path_arg(parts[2], "belldiag weights"))
        return bell_diagonal(d, weights), {"c": max(weights.values())}
    if family == "diagmix" and len(parts) == 3:
        d, a1 = _dim(parts[1]), float(parts[2])
        return diagonal_mixture(d, a1), {"a1": a1}
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
    d = rho.local_dim
    if args.dim is not None and args.dim != d:
        raise ValueError(f"--dim {args.dim} does not match the state dimension {d}")
    p = read_gsic(args.gsic) if args.gsic else _gsic_from_args(args, d)[0]
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


def _cmd_scan(args) -> int:
    check_steps(args.steps)  # before the set, which may take far longer
    p, _ = _gsic_from_args(args, args.dim)
    scan = scan_family(args.family, p, args.steps)
    bound = repr(scan.bound)
    lines = ["param,j_value,bound,margin,verdict"]
    lines += [f"{x!r},{j!r},{bound},{m!r},{verdict(f)}"
              for x, j, m, f in zip(scan.grid.tolist(), scan.j_values.tolist(),
                                    scan.margins.tolist(),
                                    scan.flagged.tolist())]
    lines.append(f"threshold,{scan.threshold!r},,,")
    lines.append(f"guaranteed_threshold,{scan.guaranteed!r},,,")
    Path(args.csv).write_text("\n".join(lines) + "\n")
    print(f"threshold {scan.threshold!r}")
    print(f"guaranteed_threshold {scan.guaranteed!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except NumericIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so that
        # the flush at interpreter exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
