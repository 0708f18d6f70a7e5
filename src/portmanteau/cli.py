"""Command-line interface: simulate, fit, test and mc subcommands.

CSV dialect everywhere: comma-separated, header row, UTF-8, '.' decimal.
Exit codes: 0 success, 2 malformed input, 3 fit failure. The environment
variable PORTMANTEAU_SEED, when set, overrides --seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys

import numpy as np

from .errors import ConfigError, CsvFormatError, InvalidSpec, NonFinite, PortmanteauError
from .fitting import FitResult
from .models import simulate, spec_from_dict
from .montecarlo import (
    _FITTERS, FitterSpec, check_statistics, evaluate_fit, experiment_from_dict, fit_series, run_experiment,
)

DEFAULT_TEST_STATS = ("Cm", "Q12", "Dt22", "Q22", "Qw22", "Mw22", "Lb", "Lbw")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def read_returns_csv(path) -> np.ndarray:
    """Read a (date, price) or (date, return) CSV and produce the return series.

    Dates must be ISO-8601 and strictly increasing. In price mode the series
    is mapped to log returns log(p_t / p_{t-1}), dropping the first row.
    Raises :class:`CsvFormatError` carrying the offending 1-based line number.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(0, f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(1, "empty file") from None
        names = [h.strip().lower() for h in header]
        if len(names) != 2 or names[0] != "date" or names[1] not in ("price", "return"):
            raise CsvFormatError(1, "header must be 'date,price' or 'date,return'")
        price_mode = names[1] == "price"
        values = []
        prev_date = None
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise CsvFormatError(lineno, f"expected 2 fields, got {len(row)}")
            try:
                date = datetime.date.fromisoformat(row[0].strip())
            except ValueError:
                raise CsvFormatError(lineno, f"invalid ISO date {row[0]!r}") from None
            if prev_date is not None and date <= prev_date:
                raise CsvFormatError(lineno, f"dates must be strictly increasing at {date}")
            prev_date = date
            try:
                value = float(row[1])
            except ValueError:
                raise CsvFormatError(lineno, f"invalid number {row[1]!r}") from None
            if not np.isfinite(value):
                raise CsvFormatError(lineno, "values must be finite")
            if price_mode and value <= 0.0:
                raise CsvFormatError(lineno, f"prices must be positive, got {value}")
            values.append(value)
    if price_mode:
        if len(values) < 2:
            raise CsvFormatError(2, "need at least two prices to form returns")
        prices = np.asarray(values)
        return np.diff(np.log(prices))
    return np.asarray(values)


def parse_fit_spec(text: str) -> FitterSpec:
    """Parse the --fit mini-language into a validated fitter.

    Accepted forms: none | ar:P | ar:aic | arma:P,Q | arch:B | garch:B,A |
    ar:P+arch:B | ar:P+garch:B,A.
    """
    fitter = _parse_fit_spec(text)
    fitter.validate()
    return fitter


def _parse_fit_spec(text: str) -> FitterSpec:
    text = text.strip().lower()
    if text in ("", "none"):
        return FitterSpec(kind="none")
    if "+" in text:
        mean_part, var_part = text.split("+", 1)
        mean = _parse_fit_spec(mean_part)
        var = _parse_fit_spec(var_part)
        if mean.kind != "ar" or var.kind != "garch":
            raise ConfigError(f"composite fit must be ar:P+arch:B or ar:P+garch:B,A, got {text!r}")
        return FitterSpec(kind="ar_garch", p=mean.p, b=var.b, a=var.a)
    if ":" not in text:
        raise ConfigError(f"cannot parse fit spec {text!r}")
    family, args = text.split(":", 1)
    try:
        if family == "ar":
            if args == "aic":
                return FitterSpec(kind="ar_aic")
            return FitterSpec(kind="ar", p=int(args))
        if family == "arma":
            p_str, q_str = args.split(",")
            return FitterSpec(kind="arma", p=int(p_str), q=int(q_str))
        if family == "arch":
            return FitterSpec(kind="garch", b=int(args), a=0)
        if family == "garch":
            b_str, a_str = args.split(",")
            return FitterSpec(kind="garch", b=int(b_str), a=int(a_str))
    except ValueError:
        raise ConfigError(f"cannot parse fit spec {text!r}") from None
    raise ConfigError(f"unknown fit family {family!r}")


def _load_json_argument(value: str) -> dict:
    """Interpret an argument as a JSON file path, or as inline JSON."""
    if os.path.exists(value):
        with open(value, encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{value}: invalid JSON ({exc})") from exc
    stripped = value.strip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"inline JSON is invalid ({exc})") from exc
    raise ConfigError(f"{value!r} is neither an existing file nor inline JSON")


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("PORTMANTEAU_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"PORTMANTEAU_SEED must be an integer, got {env!r}") from None
    return seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    spec = spec_from_dict(_load_json_argument(args.model))
    seed = _resolve_seed(args.seed)
    try:
        z = simulate(spec, args.n, seed)
    except NonFinite as exc:  # the spec's parameters are explosive: malformed input
        raise InvalidSpec(str(exc)) from exc
    start = datetime.date(2000, 1, 3)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "return"])
        for t, value in enumerate(z):
            writer.writerow([(start + datetime.timedelta(days=t)).isoformat(), repr(float(value))])
    _log(f"wrote {z.size} observations to {args.out}")
    return 0


def _fit_report(fit: FitResult) -> dict:
    params = {
        key: (list(val) if isinstance(val, tuple) else val) for key, val in fit.params.items()
    }
    return {
        "kind": fit.kind,
        "order": list(fit.order),
        "params": params,
        "loglik": fit.loglik,
        "aic": fit.aic,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "flags": list(fit.flags),
        "n_residuals": fit.residuals.n,
    }


def _cmd_fit(args) -> int:
    z = read_returns_csv(args.input)
    fitter = parse_fit_spec(args.fit)
    if fitter.kind == "none":
        raise ConfigError("the fit command needs a real fit spec, not 'none'")
    try:
        fit = fit_series(z, fitter)
    except PortmanteauError as exc:
        _log(f"fit failed: {exc}")
        return 3
    json.dump(_fit_report(fit), sys.stdout, indent=2)
    print()
    return 0


def _cmd_test(args) -> int:
    z = read_returns_csv(args.input)
    fitter = parse_fit_spec(args.fit)
    try:
        lags = [int(part) for part in args.lags.split(",") if part]
    except ValueError:
        raise ConfigError(f"--lags must list integers, got {args.lags!r}") from None
    if args.stats != "default":
        names = [s.strip() for s in args.stats.split(",") if s.strip()]
    elif _FITTERS[fitter.kind].variances:
        names = list(DEFAULT_TEST_STATS)
    else:
        names = [n for n in DEFAULT_TEST_STATS if n not in ("Lb", "Lbw")]
    check_statistics(fitter, names, lags, (len(z),))
    try:
        fit = fit_series(z, fitter)
    except PortmanteauError as exc:
        _log(f"fit failed: {exc}")
        return 3
    if fit.flags:
        _log(f"fit flags: {', '.join(fit.flags)}")
    rows = []
    for m, reports in zip(lags, evaluate_fit(fit, names, lags)):
        for name in names:
            rep = reports[name]
            rows.append((name, m, rep.statistic, rep.p_value, rep.degenerate))
    if args.format == "json":
        payload = [
            {"statistic": s, "m": m, "value": v, "p_value": p, "degenerate": d}
            for s, m, v, p, d in rows
        ]
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["statistic", "m", "value", "p_value", "degenerate"])
        for s, m, v, p, d in rows:
            writer.writerow([s, m, repr(float(v)), repr(float(p)), int(d)])
    return 0


def _cmd_mc(args) -> int:
    exp = experiment_from_dict(_load_json_argument(args.config))
    table = run_experiment(exp, workers=args.workers, log=_log)
    base = args.out
    table.to_csv(base + ".csv")
    table.to_json(base + ".json")
    _write_curves(table, exp, base + "_curves.csv")
    _log(
        f"wrote {base}.csv, {base}.json, {base}_curves.csv "
        f"({table.simulation_failures} simulation failures, {table.fit_failures} fit failures, "
        f"{table.degenerate_count} degenerate evaluations)"
    )
    return 0


def _write_curves(table, exp, path) -> None:
    """Rejection frequency against lag order, one curve per (statistic, n, level)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["statistic", "n", "level", "m", "frequency"])
        for name in exp.statistics:
            for n in exp.n_list:
                for level in exp.levels:
                    for m in exp.m_list:
                        freq = table.frequency(name, n, m, level)
                        writer.writerow([name, n, repr(float(level)), m, repr(float(freq))])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portmanteau",
        description="Portmanteau diagnostics for linear and nonlinear dependence in residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a model to a CSV file")
    p_sim.add_argument("--model", required=True, help="model spec: JSON file path or inline JSON")
    p_sim.add_argument("--n", type=int, required=True, help="number of observations")
    p_sim.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a model to a returns CSV")
    p_fit.add_argument("input", help="input CSV (date,price or date,return)")
    p_fit.add_argument("--fit", required=True, help="fit spec, e.g. ar:1, arch:3, ar:1+garch:1,1")
    p_fit.set_defaults(func=_cmd_fit)

    p_test = sub.add_parser("test", help="run portmanteau tests on a returns CSV")
    p_test.add_argument("input", help="input CSV (date,price or date,return)")
    p_test.add_argument("--fit", default="none", help="fit spec (default: none)")
    p_test.add_argument("--lags", default="10", help="comma-separated lag orders (default 10)")
    p_test.add_argument(
        "--stats",
        default="default",
        help=f"comma-separated statistic names (default: {','.join(DEFAULT_TEST_STATS)})",
    )
    p_test.add_argument("--format", choices=("csv", "json"), default="csv")
    p_test.set_defaults(func=_cmd_test)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo size/power experiment")
    p_mc.add_argument("--config", required=True, help="experiment config: JSON file or inline JSON")
    p_mc.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: one per CPU this process may run on)"
    )
    p_mc.add_argument("--out", required=True, help="output path prefix")
    p_mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CsvFormatError as exc:
        _log(f"malformed CSV: {exc}")
        return 2
    except (ConfigError, InvalidSpec) as exc:
        _log(f"error: {exc}")
        return 2
    except PortmanteauError as exc:
        _log(f"error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
