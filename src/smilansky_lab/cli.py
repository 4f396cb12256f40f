"""Command-line surface.

Every command loads a JSON model configuration, dispatches to one library
operation, and writes JSON, or CSV for `scan` and `weyl`, with a
reproducibility header (config hash, parameters with their defaults filled
in, seed).  Exit codes: 0 success, 1 computation failure (including a
`weyl` certificate whose checks fail, after its rows are written), 2
configuration error.

`_COMMANDS` declares each command's parameters once, for the flags of
`main` and the checks and defaults of `RunRequest`.  Only this module
names an output key, a CSV column or a number format: the library returns
records (a `TransitionScan`, `CertificateRow`s and their checks, a
`Classification`), and `run` writes them.

The 1D commands (`critical`, `tune`, `eig1d`, `classify`, `bound`) and
`weyl` run on the standard library alone, for every profile family;
`eig2d` and `scan` import `grid2d`, and with it numpy, in their own branch,
`weyl` imports `weyl` in its own, and `classify` and `bound` import
`bracketing` in theirs.  `eig1d` prints each channel's threshold on the
configuration's own x-domain; `classify` and `bound` take the line's.

Output goes through `_write`, which flushes it: an unwritable `--output`
and a stdout that fails (a full disk, a closed pipe) both exit 2 with one
line.  The process itself (the `smilansky-lab` script and `python -m
smilansky_lab.cli`) runs `process_main`, which ends through `os._exit`
once `main` has returned: it flushes stdout and stderr and runs the atexit
handlers, so a wrapper's coverage, logging or temp-file cleanup still
happens, but skips the interpreter's teardown of every imported module and
its final garbage collections, most of what a command costs after its
output.  An exception or SystemExit out of `main` (`--help`, a usage
error, a bug) takes Python's normal exit, and `main` itself, the library
and test entry, returns its exit code and never exits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from typing import Optional

# CPython's builtin SHA-256, as `random` takes its SHA-512: hashlib would load
# OpenSSL's _hashlib, about 2 ms per process, for the same digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .errors import ComputationError, ConfigurationError, SmilanskyError
from .model import Checked, ModelConfig, load_config
from .oned import (ComparisonSpec, critical_coupling, ground_state, threshold,
                   tune_lambda_to_threshold)

__all__ = ["RunRequest", "run", "main", "process_main"]

_SEED = 1234  # the start vector's seed of every 2D solve (`eigs.shift_invert_lanczos`)
# the default of a parameter that a command cannot run without
_NEEDED = object()
_COUPLING_TOL = ("the 1D threshold at the returned coupling must lie within "
                 "tol of the target (default 1e-6)")
# Each command's help line, its parameters in flag order, and for `eig1d` a
# description.  A parameter is (name, type, default[, help]); a default of
# None is left out unless given, and a `list` is comma-separated floats.
_COMMANDS = {
    "critical": ("critical coupling of the first channel",
                 [("tol", float, 1e-6, _COUPLING_TOL)]),
    "tune": ("tune lambda to a target 1D threshold",
             [("target", float, _NEEDED), ("tol", float, 1e-6, _COUPLING_TOL)]),
    "eig1d": ("per-channel comparison thresholds", [],
              "Each channel's 1D threshold on the configuration's own x-domain; "
              "classify and bound take the threshold on the line."),
    "eig2d": ("lowest 2D eigenvalues at one truncation",
              [("y_half", float, 8.0), ("k", int, 1), ("tol", float, 1e-7),
               ("export_matrix", str, None)]),
    "scan": ("transition scan over a Y ladder", [("ladder", list, _NEEDED)]),
    "weyl": ("quasi-mode certificate", [("mu", float, 0.0), ("eps", list, _NEEDED)]),
    "classify": ("t_V classification", [("tol", float, 1e-6)]),
    "bound": ("global lower bound", []),
}
# the commands that write CSV (their default) as well as JSON
_CSV_COMMANDS = ("scan", "weyl")
# `weyl`'s columns, the first seven fields of each `weyl.CertificateRow`:
# (name in the JSON rows and the CSV header, CSV number format)
_WEYL_COLUMNS = (("epsilon", ".6g"), ("k", ".6g"), ("n_k", ""), ("norm", ".12g"),
                 ("residual", ".12g"), ("normalized_residual", ".12g"),
                 ("bound_9eps", ".6g"))


class RunRequest(Checked, namedtuple("RunRequest", "command config_path params output fmt")):
    """One command on one configuration; `params` becomes a new dict of the
    command's parameters in `_COMMANDS`, with their defaults filled in."""

    __slots__ = ()

    def __new__(cls, command: str, config_path: str, params: Optional[dict] = None,
                output: Optional[str] = None, fmt: str = "json"):
        if command not in _COMMANDS:
            raise ConfigurationError(f"unknown command {command!r}")
        if fmt not in ("csv", "json"):
            raise ConfigurationError(f"unknown output format {fmt!r}")
        if fmt == "csv" and command not in _CSV_COMMANDS:
            raise ConfigurationError(f"{command} writes JSON only; CSV is for "
                                     f"{' and '.join(_CSV_COMMANDS)}")
        spec = _COMMANDS[command][1]
        given = {} if params is None else params
        if unknown := set(given) - {name for name, *_ in spec}:
            raise ConfigurationError(f"{command} takes no parameter {min(unknown)!r}")
        p = {}
        for name, kind, default, *_ in spec:
            value = given.get(name, default)
            if value is _NEEDED:
                raise ConfigurationError(f"{command} needs the parameter {name!r}")
            # NaN passes every comparison below; inf reaches a bisection or a grid size
            if kind in (float, list) and not all(
                    map(math.isfinite, value if kind is list else [value])):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
            if value is not None:
                p[name] = value
        if p.get("tol", 1.0) <= 0:
            raise ConfigurationError("tol must be positive")
        if "ladder" in p and sorted(p["ladder"]) != list(p["ladder"]):
            raise ConfigurationError("ladder must be sorted increasing")
        if any(not 0.0 < e < 1.0 for e in p.get("eps", [])):
            raise ConfigurationError("eps values must lie in (0, 1)")
        return super().__new__(cls, command, config_path, p, output, fmt)


def _config_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read()).hexdigest()[:16]


def _write(path: Optional[str], text: str) -> None:
    """Write and flush a file, or stdout when `path` is None; an unwritable
    path or a full stdout is a configuration error, like a bad config."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        name = "<stdout>" if path is None else path
        raise ConfigurationError(f"cannot write {name}: {exc.strerror or exc}") from exc


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
        command, p = request.command, request.params
        if command == "critical":
            ch = _line_channel(config, command)
            payload = {"lambda_crit": critical_coupling(config.omega, ch.profile,
                                                        tol=p["tol"])}
        elif command == "tune":
            ch = _line_channel(config, command)
            payload = {"lambda": tune_lambda_to_threshold(config.omega, ch.profile,
                                                          p["target"], tol=p["tol"]),
                       "target": p["target"]}
        elif command == "eig1d":
            payload = {"channels": [
                {"lambda": ch.lam, "center": ch.center,
                 "threshold": threshold(ComparisonSpec(
                     config.omega, ch.lam, ch.profile, config.x_domain))}
                for ch in config.channels]}
        elif command == "eig2d":
            from . import grid2d

            grid = grid2d.scan_grid(config, p["y_half"], p["y_half"])
            ham = grid2d.assemble_h2d(config, grid)
            grid2d.check_solve(ham, p["k"])  # a refused solve writes nothing,
            if "export_matrix" in p:  # and an unwritable path fails before the solve
                _write(p["export_matrix"], ham.export_coo())
            pairs = grid2d.lowest_eigenvalues(ham, p["k"], tol=p["tol"])
            payload = {"y_half": p["y_half"], "eigenvalues": [v for v, _ in pairs],
                       "residuals": [r for _, r in pairs]}
        elif command == "scan":
            from . import grid2d

            scan = grid2d.transition_scan(config, p["ladder"])
            fit = f"{scan.c_fit:.12g},{scan.verdict}"
            body = "Y,lambda0,c_fit,verdict\n" + "".join(
                f"{r.y_half:.6g},{r.lambda0:.12g},{fit}\n" for r in scan.rows)
            payload = {"rows": [{"Y": r.y_half, "lambda0": r.lambda0,
                                 "residual": r.residual} for r in scan.rows],
                       "c_fit": scan.c_fit, "r_squared": scan.r_squared,
                       "verdict": scan.verdict}
        elif command == "weyl":
            from . import weyl

            ch = _single_channel(config)
            # L >= omega^2 - lambda sup V, so no threshold lies below 0 unless
            # lambda sup V > omega^2; this also refuses the channels that bind
            # no ground state at all
            if not ch.lam * ch.profile.sup_value > config.omega**2:
                raise ConfigurationError("certificate needs a supercritical channel")
            # the channel's ground state on the line, on its support chain
            gs = ground_state(ComparisonSpec(config.omega, ch.lam, ch.profile))
            rows = weyl.weyl_certificate(config, gs, p["mu"], p["eps"])
            checks = weyl.certificate_checks(rows)
            # zip and map stop at the seventh field of a row
            names, formats = zip(*_WEYL_COLUMNS)
            payload = {"rows": [dict(zip(names, r)) for r in rows], "checks": checks,
                       "all_pass": all(checks.values())}
            body = "".join([f"# all_pass={json.dumps(payload['all_pass'])}\n",
                            ",".join(names) + "\n"]
                           + [",".join(map(format, r, formats)) + "\n" for r in rows])
        elif command == "classify":
            from . import bracketing

            cls = bracketing.classify(config, tol=p["tol"])
            payload = {"t_V": cls.t_v, "verdict": cls.verdict,
                       "per_channel": list(cls.per_channel)}
            # routed, like `bound`, by the verdict at the default tol; left
            # out where the bound is refused
            try:
                payload["global_lower_bound"] = bracketing.global_lower_bound(
                    config, cls.per_channel)
            except (ConfigurationError, ComputationError):
                pass
        else:
            from . import bracketing

            payload = {"global_lower_bound": bracketing.global_lower_bound(config)}
        meta = {"command": command, "config_sha256": _config_hash(request.config_path),
                "seed": _SEED, "params": dict(sorted(p.items()))}
        if request.fmt == "csv":
            text = "".join(f"# {k}={json.dumps(v, sort_keys=True)}\n"
                           for k, v in meta.items()) + body
        else:
            text = json.dumps({"meta": meta, **payload}, sort_keys=True) + "\n"
        _write(request.output, text)
        if command == "weyl":
            failed = [name for name, ok in payload["checks"].items() if not ok]
            if failed:
                raise ComputationError(f"certificate checks failed: {', '.join(failed)}")
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
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="smilansky-lab",
        description="Spectral analysis of the regularized Smilansky model")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command is listed, but only the one requested, the first
    # non-option argument, is parsed, so only it needs its flags
    requested = next((arg for arg in argv if not arg.startswith("-")), None)
    for command, (help_line, spec, *about) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line, description=next(iter(about), None))
        if command != requested:
            continue
        sp.add_argument("--config", required=True)
        sp.add_argument("--output")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"))
        for name, kind, default, *help_text in spec:
            sp.add_argument("--" + name.replace("_", "-"), type=None if kind is list else kind,
                            required=default is _NEEDED, help=next(iter(help_text), None))

    args = parser.parse_args(argv)
    try:
        params = {name: _parse_floats(value) if kind is list else value
                  for name, kind, *_ in _COMMANDS[args.command][1]
                  if (value := getattr(args, name)) is not None}
        fmt = args.fmt or ("csv" if args.command in _CSV_COMMANDS else "json")
        request = RunRequest(command=args.command, config_path=args.config,
                             params=params, output=args.output, fmt=fmt)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(request)


def _flush(code: int) -> None:
    """Flush stdout and stderr.  A failed stdout write keeps its bytes
    buffered, so the flush fails again; `_write` has reported it, and the
    exit code is not 0, so that error is dropped."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            if not code:
                raise


def process_main() -> None:
    """Run `main` as the whole process and end it through `os._exit`, after
    the flushes and the atexit handlers (module docstring)."""
    import atexit
    import os

    code = main()
    _flush(code)
    atexit._run_exitfuncs()
    # what the handlers wrote
    _flush(code)
    os._exit(code)


if __name__ == "__main__":
    process_main()
