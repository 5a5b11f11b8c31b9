"""Command-line driver: function catalog, structured configuration, and
report emission.

Subcommands: ``diagnose`` (constant estimators plus relation audit),
``prox`` (proximal point trajectory plus rate audit), ``tracking``
(elliptic tracking instance: solve, curvature estimate, perturbation
sweep), ``catalog`` (list the built-in test functions).

Settings resolve as defaults < config file (``key = value`` lines, ``#``
comments) < command-line flags.  Only settings that define the problem,
its sampling and its grids are keys; solver and audit settings are the
library's defaults.  Every output file embeds the fully resolved
configuration and any sampling seed, so a run can be reproduced
bit-identically from any of its outputs.  Exit codes: 0 success, 2 an
audited relation failed, 1 usage or solver error (in which case no report
file is written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Only ``core`` is imported here.  Each subcommand imports the modules it
# runs when it runs, so a process loads only the layers it uses.
from .core import BallRegion, ExponentPair, FunctionOracle, GrowthLabError

if TYPE_CHECKING:
    from .catalog import CatalogEntry
    from .minimize import SolverConfig

__all__ = ["main", "cmd_diagnose", "cmd_prox", "cmd_tracking", "cmd_catalog"]

# The resolved settings of one run: ``"subcommand"`` and every key of its
# schema, each value typed by the schema's parser.
Config = Dict[str, object]


def __getattr__(name: str):
    # The benchmark's tracer checks that ``cli.run_diagnostics`` is
    # wrapped while it is installed: serve the defining module's current
    # object, so a wrapper or patch installed there shows here too.
    if name == "run_diagnostics":
        from . import diagnostics

        return diagnostics.run_diagnostics
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _floats(raw: str) -> Tuple[float, ...]:
    """A comma-separated list of floats.  A blank list is empty, for the
    library to refuse by name; a blank item among others is a typo, never
    dropped."""
    tokens = raw.split(",")
    blank = [not tok.strip() for tok in tokens]
    if all(blank):
        return ()
    if any(blank):
        raise ValueError(f"empty item in the list {raw!r}")
    return tuple(float(tok) for tok in tokens)


# (parser, default) per key.  A None default is the library's own default,
# which the subcommand writes back into the resolved configuration; a 0
# for ``grid_points`` or ``directions`` is derived from the function's
# dimension, and the derived value is written back the same way.
_SCHEMAS: Dict[str, Dict[str, Tuple[Callable[[str], object], object]]] = {
    "diagnose": {
        "fn": (str, "power"),
        "p": (float, 2.0),
        "bound": (float, 1.0),
        "delta": (float, 10.0),
        "grid_points": (int, 0),
        "tilt_norms": (_floats, (0.5, 1.0, 2.0, 4.0)),
        "directions": (int, 0),
        "seed": (int, 0),
        "out": (str, "growthlab-out"),
    },
    "prox": {
        "fn": (str, "power"),
        "p": (float, 2.0),
        "bound": (float, 1.0),
        "epsilon": (float, 0.5),
        "x0": (_floats, (1.0,)),
        "iterations": (int, 10),
        "delta": (float, 10.0),
        "grid_points": (int, 0),
        "out": (str, "growthlab-out"),
    },
    "tracking": {
        "n": (int, 32),
        "alpha": (float, 0.0),
        "beta": (float, 8.0),
        "amplitude": (float, 0.6),
        "tol": (float, None),
        "ssc_samples": (int, 16),
        "eta_norms": (_floats, (1e-3, 1e-2, 1e-1)),
        "etas_per_norm": (int, 8),
        "seed": (int, 0),
        "out": (str, "growthlab-out"),
    },
    "catalog": {},
}


def _read_config_file(path: str) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        entries[key.strip()] = raw.strip()
    return entries


def resolve_config(subcommand: str, args: argparse.Namespace) -> Config:
    """The run's settings: defaults < config file < flags."""
    schema = _SCHEMAS[subcommand]
    config: Config = {"subcommand": subcommand}
    config.update((key, default) for key, (_, default) in schema.items())
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in schema:
                raise ValueError(f"unknown config key {key!r} for '{subcommand}'")
            config[key] = schema[key][0](raw)
    for key, (parse, _) in schema.items():
        raw = getattr(args, key, None)
        if raw is not None:
            config[key] = parse(raw)
    if config.get("seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {config['seed']}")
    return config


def _finite_or_none(obj):
    """``obj`` with arrays as lists and every non-finite float as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_none(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return _finite_or_none(obj.tolist())
    return obj


def _json_bytes(payload: dict) -> bytes:
    """Strict JSON (RFC 8259 has no NaN or Infinity): a non-finite float is
    written as ``null``."""
    text = json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode()


def _config_comment_lines(config: Config) -> List[str]:
    lines = [f"subcommand={config['subcommand']}"]
    for key, val in sorted(config.items()):
        if key == "subcommand":
            continue
        if isinstance(val, tuple):
            val = ",".join(repr(v) for v in val)
        lines.append(f"{key}={val}")
    return lines


def _text_bytes(config: Config, body: Iterable[str]) -> bytes:
    """The ``# key=value`` lines of ``config``, then the ``body`` lines."""
    lines = [f"# {line}" for line in _config_comment_lines(config)]
    lines.extend(body)
    return ("\n".join(lines) + "\n").encode()


def _csv_bytes(config: Config, header: Sequence[str], rows: Sequence[Sequence[str]]) -> bytes:
    return _text_bytes(config, (",".join(row) for row in [header, *rows]))


def _matrix_bytes(config: Config, values: np.ndarray) -> bytes:
    # ``tolist`` gives Python floats, whose repr is ``repr(float(v))``
    rows = np.asarray(values, dtype=float).tolist()
    return _text_bytes(config, (" ".join(map(repr, row)) for row in rows))


def _write_outputs(config: Config, files: Dict[str, bytes], **fields) -> None:
    """Write ``files`` in order, then ``manifest.json``: the resolved config,
    the names of ``files`` in write order and the subcommand's ``fields``."""
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (out / name).write_bytes(payload)
    manifest = {"config": config, "outputs": list(files), **fields}
    (out / "manifest.json").write_bytes(_json_bytes(manifest))


def _problem(
    config: Config,
) -> Tuple[CatalogEntry, FunctionOracle, ExponentPair, BallRegion, SolverConfig]:
    """The catalog entry of ``fn``, its oracle, the exponents, the ball of
    radius ``delta`` around the origin and the solver settings; a derived
    ``grid_points`` is written into ``config``."""
    from .catalog import _check_bound, get_entry
    from .minimize import SolverConfig

    entry = get_entry(config["fn"])
    dim = entry.dimension
    # every function's outputs record ``bound``, so refuse a bad one even
    # where the function does not read it
    _check_bound(config["bound"])
    oracle = entry.make(**{key: config[key] for key in entry.default_params})
    pq = ExponentPair.from_p(config["p"])
    region = BallRegion(np.zeros(dim), config["delta"])
    if config["grid_points"] == 0:
        config["grid_points"] = 2001 if dim == 1 else (101 if dim == 2 else 31)
    return entry, oracle, pq, region, SolverConfig(grid_points_per_axis=config["grid_points"])


def _coords(v: np.ndarray) -> str:
    return ";".join(repr(float(c)) for c in v)


def cmd_diagnose(config: Config) -> int:
    from . import diagnostics

    entry, oracle, pq, region, solver = _problem(config)
    if config["directions"] == 0:
        config["directions"] = 2 if entry.dimension == 1 else 8

    report = diagnostics.run_diagnostics(
        oracle,
        region,
        pq,
        solver,
        tilt_norms=config["tilt_norms"],
        directions_per_norm=config["directions"],
        seed=config["seed"],
    )

    # the report's fields as nested dicts, with the audit's verdict added
    payload = {"config": config, "function": oracle.descriptor, **asdict(report)}
    payload["audit"]["all_pass"] = report.audit.all_pass
    growth, tilt, loja = report.growth, report.tilt, report.loja
    rows = [
        ["growth", repr(growth.gamma_hat), _coords(growth.witness), "", str(growth.samples_used)],
        ["tilt", repr(tilt.kappa_hat), _coords(tilt.worst_minimizer),
         _coords(tilt.worst_tilt), ""],
        ["loja", repr(loja.mu_hat), "", _coords(loja.worst_tilt), ""],
    ]
    _write_outputs(
        config,
        {
            "diagnose_report.json": _json_bytes(payload),
            "diagnose_report.csv": _csv_bytes(
                config, ["estimator", "value", "witness", "tilt", "samples"], rows
            ),
        },
    )

    for note in report.audit.degenerate:
        print(f"warning: degenerate estimate: {note}")
    print(
        f"{oracle.descriptor}: gamma_hat={growth.gamma_hat!r} "
        f"kappa_hat={tilt.kappa_hat!r} mu_hat={loja.mu_hat!r} "
        f"audit={'pass' if report.audit.all_pass else 'FAIL'}"
    )
    return 0 if report.audit.all_pass else 2


def cmd_prox(config: Config) -> int:
    from . import prox

    entry, oracle, pq, region, solver = _problem(config)
    x0 = np.asarray(config["x0"], dtype=float)
    if x0.size != entry.dimension:
        raise ValueError(
            f"x0 has length {x0.size}, but '{entry.id}' has dimension {entry.dimension}"
        )
    epsilon = config["epsilon"]
    prox_cfg = prox.ProxConfig(epsilon, pq, config["iterations"], region, solver)

    constants = oracle.known_constants or {}
    gamma_ref = constants.get("gamma")
    audited = gamma_ref is not None and gamma_ref > 0.0
    # Refuse before doing any work what the rate audit would refuse after
    # the whole trajectory: vacuous rate bounds, and a start where f is
    # +inf.  A start outside the ball is left to run_prox, which refuses it.
    if audited and epsilon >= gamma_ref:
        raise prox.EpsilonNotBelowGamma(
            f"epsilon={epsilon} must lie strictly below the growth "
            f"modulus gamma={gamma_ref} of '{oracle.descriptor}'"
        )
    if audited and region.contains(x0):
        prox._refuse_infinite_start(oracle(x0))

    traj = prox.run_prox(oracle, x0, prox_cfg)
    audit = None
    if audited:
        xbar = oracle.known_minimizer
        audit = prox.audit_rates(traj, gamma_ref, xbar, oracle(xbar))

    header = ["k"] + [f"x{i}" for i in range(x0.size)] + [
        "f_value", "bound_x", "bound_f", "margin_x", "margin_f",
    ]
    rows = []
    for k, (point, value) in enumerate(zip(traj.points, traj.values)):
        row = [str(k)] + [repr(float(c)) for c in point] + [repr(value)]
        if audit is not None:
            rec = audit.records[k]
            row += [repr(rec.bound_distance), repr(rec.bound_gap),
                    repr(rec.margin_distance), repr(rec.margin_gap)]
        else:
            row += ["", "", "", ""]
        rows.append(row)

    _write_outputs(
        config,
        {"prox_trajectory.csv": _csv_bytes(config, header, rows)},
        audit=None if audit is None else {"passed": audit.passed, "rho": audit.rho},
    )

    if audit is None:
        print(f"{oracle.descriptor}: trajectory written, no growth reference for a rate audit")
        return 0
    print(f"{oracle.descriptor}: rate audit {'pass' if audit.passed else 'FAIL'} (rho={audit.rho!r})")
    return 0 if audit.passed else 2


def cmd_tracking(config: Config) -> int:
    from . import tracking as trk

    n = config["n"]
    alpha, beta = config["alpha"], config["beta"]
    y_d = config["amplitude"] * trk.default_target(n)
    if config["tol"] is None:
        config["tol"] = trk.SPG_TOL
    trk._check_tol(config["tol"])
    seed = config["seed"]
    # refuse bad sampling settings before the control solve
    trk._check_ssc_settings(config["ssc_samples"])
    trk._check_sweep_settings(config["eta_norms"], config["etas_per_norm"])

    result = trk.solve_tracking(y_d, alpha, beta, config["tol"])
    ssc = trk.ssc_estimate(result, config["ssc_samples"], seed=seed)
    sweep = trk.perturbation_sweep(result, config["eta_norms"], config["etas_per_norm"], seed=seed)
    consistent = sweep.consistent(ssc)

    header = ["eta_norm", "index", "ratio", "converged", "iterations", "error"]
    rows = [
        [repr(s.eta_norm), str(s.index), repr(s.ratio), str(s.converged),
         str(s.iterations), s.error.replace(",", ";")]
        for s in sweep.samples
    ]
    _write_outputs(
        config,
        {
            "control.txt": _matrix_bytes(config, result.control),
            "state.txt": _matrix_bytes(config, result.state),
            "adjoint.txt": _matrix_bytes(config, result.adjoint),
            "target.txt": _matrix_bytes(config, y_d),
            "sweep.csv": _csv_bytes(config, header, rows),
        },
        grid={"n": n, "h": 1.0 / (n + 1)},
        box={"alpha": alpha, "beta": beta},
        solve={
            "objective": result.objective_value,
            "first_order_residual": result.first_order_residual,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        ssc_estimate=ssc,
        sweep={"kappa_hat": sweep.kappa_hat, "label": sweep.label, "consistent": consistent},
    )

    print(
        f"tracking n={n}: J={result.objective_value!r} "
        f"residual={result.first_order_residual!r} ssc={ssc!r} "
        f"kappa_hat={sweep.kappa_hat!r} consistency={'pass' if consistent else 'FAIL'}"
    )
    return 0 if consistent else 2


def cmd_catalog(config: Config) -> int:
    from . import catalog

    for entry in sorted(catalog.CATALOG.values(), key=lambda e: e.id):
        params = " ".join(f"{k}={v}" for k, v in sorted(entry.default_params.items()))
        oracle = entry.make()
        constants = dict(oracle.known_constants or {})
        known = " ".join(f"{k}={v}" for k, v in sorted(constants.items()))
        print(f"{entry.id}  dim={entry.dimension}  [{params}]  {entry.summary}  ({known})")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 on a usage error; here 2 means an audited
        # relation failed, so usage errors take the solver-error path (exit 1)
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """Join ``--flag -1.2,0.5`` into ``--flag=-1.2,0.5`` for numeric flags.

    argparse reads a token starting with ``-`` as an option name unless it
    looks like a plain negative number, so negative lists such as ``--x0
    -1.2,0.5`` and exponents such as ``--epsilon -1e-3`` would be refused.
    Every token after a numeric flag that starts with a single ``-`` is
    joined, so a malformed value meets its parser's own message; one that
    starts with ``--`` is left to argparse as an option name.
    """
    numeric = {
        f"--{key.replace('_', '-')}"
        for schema in _SCHEMAS.values()
        for key, (parse, _) in schema.items()
        if parse is not str
    }
    out: List[str] = []
    for token in argv:
        if out and out[-1] in numeric and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the
    process: ``parse_args`` keeps no state between calls."""
    parser = _ArgumentParser(
        prog="growthlab",
        description="Growth-condition diagnostics, proximal point rates, and elliptic tracking runs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="key=value settings file")
        for key in schema:
            cmd.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


_HANDLERS = {
    "diagnose": cmd_diagnose,
    "prox": cmd_prox,
    "tracking": cmd_tracking,
    "catalog": cmd_catalog,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_negative_values(argv))
        config = resolve_config(args.subcommand, args)
        return _HANDLERS[args.subcommand](config)
    except (GrowthLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
