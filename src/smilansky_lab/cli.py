"""Command-line surface.

Every command loads a JSON model configuration, dispatches to one library
operation, and writes CSV or JSON with a reproducibility header (config
hash, tolerances, seed).  Exit codes: 0 success, 1 computation failure
(including a `weyl` certificate whose checks fail, after its rows are
written), 2 configuration error.

The 1D commands (`critical`, `tune`, `eig1d`, `classify`, `bound`) and
`weyl` run on the standard library alone, for every profile family;
`eig2d` and `scan` import `grid2d`, and with it numpy, in their own branch,
`weyl` imports `weyl` in its own, and `classify` and `bound` import
`bracketing` in theirs.  `eig1d` prints each channel's threshold on the
configuration's own x-domain; `classify` and `bound` take the line's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import namedtuple
from typing import Optional

from .errors import ComputationError, ConfigurationError, SmilanskyError
from .model import Checked, ModelConfig, load_config
from .oned import (ComparisonSpec, critical_coupling, ground_state, threshold,
                   tune_lambda_to_threshold)

__all__ = ["RunRequest", "run", "main"]

_SEED = 1234
_COMMANDS = ("critical", "tune", "eig1d", "eig2d", "scan", "weyl", "classify", "bound")
# the parameter each command cannot run without
_REQUIRED = {"tune": "target", "scan": "ladder", "weyl": "eps"}


class RunRequest(Checked, namedtuple("RunRequest", "command config_path params output fmt")):
    """One command on one configuration; `params` defaults to a new empty
    dict, and must hold `target` for `tune`, `ladder` for `scan` and `eps`
    for `weyl`."""

    __slots__ = ()

    def __new__(cls, command: str, config_path: str, params: Optional[dict] = None,
                output: Optional[str] = None, fmt: str = "json"):
        if command not in _COMMANDS:
            raise ConfigurationError(f"unknown command {command!r}")
        if fmt not in ("csv", "json"):
            raise ConfigurationError(f"unknown output format {fmt!r}")
        p = {} if params is None else params
        need = _REQUIRED.get(command)
        if need is not None and need not in p:
            raise ConfigurationError(f"{command} needs the parameter {need!r}")
        # NaN passes every comparison below, and an infinite value reaches
        # a bisection or an integer grid size
        for key in ("tol", "target", "y_half", "mu", "ladder", "eps"):
            values = p.get(key, [])
            if not all(map(math.isfinite, values if isinstance(values, list) else [values])):
                raise ConfigurationError(f"{key} must be finite, got {values!r}")
        if p.get("tol", 1.0) <= 0:
            raise ConfigurationError("tol must be positive")
        if "ladder" in p:
            lad = p["ladder"]
            if sorted(lad) != list(lad):
                raise ConfigurationError("ladder must be sorted increasing")
        if "eps" in p:
            if any(not 0.0 < e < 1.0 for e in p["eps"]):
                raise ConfigurationError("eps values must lie in (0, 1)")
        return super().__new__(cls, command, config_path, p, output, fmt)


def _config_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _meta(req: RunRequest) -> dict:
    return {
        "command": req.command,
        "config_sha256": _config_hash(req.config_path),
        "seed": _SEED,
        "params": {k: v for k, v in sorted(req.params.items())},
    }


def _write(path: str, text: str) -> None:
    """Write a file; a path that cannot be written is a configuration error,
    as a config that cannot be read is."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(req: RunRequest, text: str) -> None:
    if req.output:
        _write(req.output, text)
    else:
        sys.stdout.write(text)


def _csv_with_header(req: RunRequest, body: str) -> str:
    meta = _meta(req)
    head = "".join(f"# {k}={json.dumps(v, sort_keys=True)}\n" for k, v in meta.items())
    return head + body


def _json_payload(req: RunRequest, payload: dict) -> str:
    return json.dumps({"meta": _meta(req), **payload}, sort_keys=True) + "\n"


def _single_channel(config: ModelConfig):
    if not config.channels:
        raise ConfigurationError("this command needs at least one channel")
    return config.channels[0]


def _line_channel(config: ModelConfig, command: str):
    """The first channel, for the commands that solve on the line only."""
    if config.x_domain.kind == "interval":
        raise ConfigurationError(
            f"{command} computes couplings on the line, but the x-domain is the "
            f"interval (-{config.x_domain.c}, {config.x_domain.c}) with "
            f"{config.x_domain.bc} ends")
    return _single_channel(config)


def run(request: RunRequest) -> int:
    """Dispatch a request; returns the process exit code."""
    try:
        config = load_config(request.config_path)
        p = request.params
        if request.command == "critical":
            ch = _line_channel(config, "critical")
            lc = critical_coupling(config.omega, ch.profile, tol=p.get("tol", 1e-6))
            _emit(request, _json_payload(request, {"lambda_crit": lc}))
        elif request.command == "tune":
            ch = _line_channel(config, "tune")
            lam = tune_lambda_to_threshold(config.omega, ch.profile,
                                           p["target"], tol=p.get("tol", 1e-6))
            _emit(request, _json_payload(request, {"lambda": lam,
                                                   "target": p["target"]}))
        elif request.command == "eig1d":
            rows = [{"lambda": ch.lam, "center": ch.center,
                     "threshold": threshold(ComparisonSpec(
                         config.omega, ch.lam, ch.profile, config.x_domain))}
                    for ch in config.channels]
            _emit(request, _json_payload(request, {"channels": rows}))
        elif request.command == "eig2d":
            from . import grid2d

            y_half = p.get("y_half", 8.0)
            grid = grid2d.scan_grid(config, y_half, y_half)
            ham = grid2d.assemble_h2d(config, grid)
            # an unwritable path fails before the solve, not after it
            if p.get("export_matrix"):
                _write(p["export_matrix"], ham.export_coo())
            pairs = grid2d.lowest_eigenvalues(ham, p.get("k", 1),
                                              tol=p.get("tol", 1e-7), seed=_SEED)
            _emit(request, _json_payload(request, {
                "y_half": y_half,
                "eigenvalues": [v for v, _ in pairs],
                "residuals": [r for _, r in pairs],
            }))
        elif request.command == "scan":
            from . import grid2d

            scan = grid2d.transition_scan(config, p["ladder"])
            if request.fmt == "csv":
                _emit(request, _csv_with_header(request, grid2d.scan_csv(scan)))
            else:
                _emit(request, _json_payload(request, {
                    "rows": [{"Y": r.y_half, "lambda0": r.lambda0, "residual": r.residual}
                             for r in scan.rows],
                    "c_fit": scan.c_fit, "r_squared": scan.r_squared,
                    "verdict": scan.verdict,
                }))
        elif request.command == "weyl":
            from . import weyl

            ch = _single_channel(config)
            # L >= omega^2 - lambda sup V, so no threshold lies below 0 unless
            # lambda sup V > omega^2; this also refuses the channels that bind
            # no ground state at all
            if not ch.lam * ch.profile.sup_value > config.omega**2:
                raise ConfigurationError("certificate needs a supercritical channel")
            # the channel's ground state on the line, on its support chain
            gs = ground_state(ComparisonSpec(config.omega, ch.lam, ch.profile))
            rows = weyl.weyl_certificate(config, gs, p.get("mu", 0.0), p["eps"])
            summary = weyl.certificate_summary(rows)
            if request.fmt == "csv":
                verdict = f"# all_pass={json.dumps(summary['all_pass'])}\n"
                _emit(request, _csv_with_header(request, verdict + weyl.certificate_csv(rows)))
            else:
                _emit(request, _json_payload(request, summary))
            failed = [name for name, ok in summary["checks"].items() if not ok]
            if failed:
                raise ComputationError(
                    f"certificate checks failed: {', '.join(failed)}")
        elif request.command == "classify":
            from . import bracketing

            cls = bracketing.classify(config, tol=p.get("tol", 1e-6))
            _emit(request, _json_payload(
                request, bracketing.classification_json_dict(config, cls)))
        elif request.command == "bound":
            from . import bracketing

            bound = bracketing.global_lower_bound(config)
            _emit(request, _json_payload(request, {"global_lower_bound": bound}))
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SmilanskyError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ConfigurationError(f"bad numeric list {text!r}: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smilansky-lab",
        description="Spectral analysis of the regularized Smilansky model")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True)
        sp.add_argument("--output", default=None)
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default=None)

    coupling_tol = ("the 1D threshold at the returned coupling must lie within "
                    "tol of the target (default 1e-6)")
    sp = sub.add_parser("critical", help="critical coupling of the first channel")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-6, help=coupling_tol)
    sp = sub.add_parser("tune", help="tune lambda to a target 1D threshold")
    common(sp)
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-6, help=coupling_tol)
    sp = sub.add_parser("eig1d", help="per-channel comparison thresholds")
    common(sp)
    sp = sub.add_parser("eig2d", help="lowest 2D eigenvalues at one truncation")
    common(sp)
    sp.add_argument("--y-half", type=float, default=8.0)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--export-matrix", default=None)
    sp = sub.add_parser("scan", help="transition scan over a Y ladder")
    common(sp)
    sp.add_argument("--ladder", required=True)
    sp = sub.add_parser("weyl", help="quasi-mode certificate")
    common(sp)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--eps", required=True)
    sp = sub.add_parser("classify", help="t_V classification")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp = sub.add_parser("bound", help="global lower bound")
    common(sp)

    args = parser.parse_args(argv)

    params = {}
    for key in ("tol", "target", "y_half", "k", "mu"):
        if getattr(args, key, None) is not None:
            params[key] = getattr(args, key)
    if getattr(args, "export_matrix", None):
        params["export_matrix"] = args.export_matrix
    try:
        if getattr(args, "ladder", None) is not None:
            params["ladder"] = _parse_floats(args.ladder)
        if getattr(args, "eps", None) is not None:
            params["eps"] = _parse_floats(args.eps)
        fmt = args.fmt or ("csv" if args.command in ("scan", "weyl") else "json")
        request = RunRequest(command=args.command, config_path=args.config,
                             params=params, output=args.output, fmt=fmt)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(request)


if __name__ == "__main__":
    sys.exit(main())
