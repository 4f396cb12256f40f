"""Run one `smilansky-lab` command with a span around every public function.

    python3 perfbench/traced_cli.py SPANS.json INVOCATION_ID -- <cli arguments>

The package source is untouched: before the command starts, each public
function of the layers below is replaced by a timing wrapper on every module
attribute it is reached through (for example `oned.sturm_smallest` is the
same function object as `eigs.sturm_smallest`, and `weyl.adaptive_integrate`
as `quadrature.adaptive_integrate`).  Spans are kept in memory and written to
SPANS.json when the command ends, also when it ends in an exception.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from smilansky_lab import bracketing, cli, eigs, grid2d, model, oned, quadrature, weyl

LAYERS = {"eigs": eigs, "oned": oned, "bracketing": bracketing, "weyl": weyl,
          "quadrature": quadrature, "grid2d": grid2d, "model": model, "cli": cli}

# A span is [name, parent index or -1, start, end, attributes].
SPANS: list[list] = []
_STACK: list[int] = []


def _threshold_key(args, kwargs):
    spec = args[0]
    policy = args[1] if len(args) > 1 else kwargs.get("policy", oned.ResolutionPolicy())
    return {"key": repr((spec, policy))}


# Attributes recorded for a few functions, from their arguments and result.
_ATTRS = {
    "eigs.sturm_smallest": lambda args, kwargs, out: {"rows": args[0].n},
    "oned.threshold": lambda args, kwargs, out: _threshold_key(args, kwargs),
    "grid2d.assemble_h2d": lambda args, kwargs, out: {"Y": args[1].y_half},
    "grid2d.lowest_eigenvalues": lambda args, kwargs, out: {
        "Y": args[0].grid.y_half, "unknowns": args[0].n, "residual": out[0][1]},
}


def _wrap(name: str, fn):
    attrs = _ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, _STACK[-1] if _STACK else -1, time.perf_counter(), None, None]
        _STACK.append(len(SPANS))
        SPANS.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            _STACK.pop()
        if attrs is not None:
            span[4] = attrs(args, kwargs, out)
        return out
    return wrapper


def install() -> None:
    """Wrap every public function of every layer."""
    wrappers = {}
    for layer, mod in LAYERS.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = _wrap(f"{layer}.{name}", obj)
    for mod in LAYERS.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])


def main(argv: list[str]) -> int:
    spans_path, invocation = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"id": invocation, "spans": SPANS}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
