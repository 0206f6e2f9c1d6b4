"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 resource cap exceeded (the
oracle's enumeration cap, or memory). Every randomized subcommand takes
--seed (default 0, never wall clock), and the payload printed to stdout is a
deterministic function of the flags. Records appended via --out additionally
carry a timestamp and a config hash used for deduplication.

Each command imports what it runs inside its own body: numpy, the harness,
the adversaries and the plots load only with the command that needs them,
so ``bounds-table`` and ``--help`` run without numpy.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
import time
from typing import TYPE_CHECKING

import click

from . import bounds
from .checks import DETECTOR_NAMES, at_least
from .errors import BdLimitsError, ParameterError, ResourceCapError
from .results import append_result, config_hash

if TYPE_CHECKING:
    from .adversary import ToyConfig


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit(command: str, config: dict, payload, out: str | None, text: str | None = None) -> None:
    """Optionally append a timestamped record of the payload, then print the
    payload envelope, or ``text`` when given. The hash covers the command and
    config. Appending first means a failed append exits with nothing on stdout."""
    digest = config_hash({"command": command, **config})
    if out:
        append_result(
            out,
            {
                "command": command,
                "config_hash": digest,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "payload": payload,
            },
        )
    if text is None:
        text = json.dumps({"command": command, "config_hash": digest, "payload": payload})
    click.echo(text)


class _Main(click.Group):
    """Maps every error a command raises to the documented exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ResourceCapError, MemoryError) as exc:
            _fail(str(exc) or "out of memory", 3)
        except (BdLimitsError, OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            _fail(str(exc), 2)


@click.group(cls=_Main)
def main() -> None:
    """Feasibility bounds and simulators for training-data backdoor detection."""


@main.command("bounds-table")
@click.option("--alpha", default=0.1, show_default=True, type=float)
@click.option("--beta", default=0.001, show_default=True, type=float)
@click.option(
    "--catalog",
    "catalog_path",
    default=None,
    type=click.Path(),
    help="JSON list of dataset specs; defaults to the bundled catalog.",
)
@click.option("--format", "fmt", default="csv", show_default=True, type=click.Choice(["csv", "json"]))
@click.option("--out", default=None, type=click.Path(), help="Append the report to a JSON-lines file.")
def bounds_table(alpha: float, beta: float, catalog_path: str | None, fmt: str, out: str | None) -> None:
    """Minimum training-set sizes for alpha-error detection, per dataset."""
    catalog = bounds.load_catalog(catalog_path)
    rows = bounds.table_report(alpha, beta, catalog)
    payload = [row.to_jsonable() for row in rows]
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "log10_alphabet", "log10_min_n"])
        for row in rows:
            writer.writerow([row.name, f"{row.log10_alphabet:.2f}", row.min_n_exponent])
        text = buf.getvalue().rstrip("\n")
    config = {
        "alpha": alpha,
        "beta": beta,
        # shallow: every field is a scalar or a tuple of ints
        "catalog": [{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)} for spec in catalog],
    }
    _emit("bounds-table", config, payload, out, text)


@main.command("risk")
@click.option("--detector", "detector_name", default="np", show_default=True, type=click.Choice(sorted(DETECTOR_NAMES)))
@click.option("--k", default=2, show_default=True, type=int)
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--gamma", default=0.5, show_default=True, type=float)
@click.option("--beta", default=0.5, show_default=True, type=float)
@click.option(
    "--pair",
    "pair_path",
    default=None,
    type=click.Path(),
    help="JSON file {p0, pb, gamma, beta}; overrides --k/--gamma/--beta.",
)
@click.option("--trials", default=10000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--oracle", is_flag=True, help="Also print the exact optimal risk, summed over the types of n draws on the pair's symbol classes.")
@click.option("--out", default=None, type=click.Path())
def risk(
    detector_name: str,
    k: int,
    n: int,
    gamma: float,
    beta: float,
    pair_path: str | None,
    trials: int,
    seed: int,
    oracle: bool,
    out: str | None,
) -> None:
    """Monte-Carlo risk of a detector on a distribution pair."""
    from .distributions import DistributionPair
    from .harness import DETECTORS, estimate_risk, uniform_vs_point_mass

    if pair_path is not None:
        with open(pair_path, "r", encoding="utf-8") as fh:
            pair = DistributionPair.from_jsonable(json.load(fh))
    else:
        pair = uniform_vs_point_mass(k, gamma, beta)
    estimate = estimate_risk(DETECTORS[detector_name](), pair, n, trials, seed)
    payload = {
        "detector": detector_name,
        "k": pair.alphabet_size,
        "n": n,
        "gamma": pair.gamma,
        "beta": pair.beta,
        "trials": trials,
        "seed": seed,
        "risk": estimate.to_jsonable(),
        "oracle_exact": None,
        "oracle_gap": None,
    }
    if oracle:
        exact = bounds.exact_type3_risk(pair, n)
        payload["oracle_exact"] = exact
        payload["oracle_gap"] = abs(estimate.p_hat - exact)
    config = {
        "pair": pair.to_jsonable(),
        "oracle": oracle,
        **{key: payload[key] for key in ("detector", "n", "trials", "seed")},
    }
    _emit("risk", config, payload, out)


def _boundary_points(clf, x_min: float, x_max: float) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Endpoints of the line w.z + b = 0 across [x_min, x_max], K = 2 only."""
    w0, w1 = float(clf.w[0]), float(clf.w[1])
    if abs(w1) > 1e-12:
        return ((x_min, -(w0 * x_min + clf.b) / w1), (x_max, -(w0 * x_max + clf.b) / w1))
    if abs(w0) > 1e-12:
        x = -clf.b / w0
        return ((x, x_min), (x, x_max))
    return None


def _toy_svg(path: str, config: ToyConfig, seed: int) -> None:
    import numpy as np

    from . import svgplot
    from .adversary import projections, toy_poison, toy_sample_clean, toy_train_classifier

    clean = toy_sample_clean(config, seed)
    poisoned = toy_poison(*clean, config, seed)
    clean_clf = toy_train_classifier(*clean)
    poisoned_clf = toy_train_classifier(*poisoned)
    panels = []

    if config.k == 2:
        ys, zs = poisoned
        lo = float(zs.min()) - 0.5
        hi = float(zs.max()) + 0.5
        scatter = svgplot.Panel("poisoned training set", lo, hi, lo, hi)
        scatter.points(zs[:, 0], zs[:, 1], np.where(ys == 1, "#d62728", "#1f77b4"))
        for clf, color, dash in ((clean_clf, "#2ca02c", None), (poisoned_clf, "#9467bd", "6,4")):
            pts = _boundary_points(clf, lo, hi)
            if pts:
                scatter.line(*pts[0], *pts[1], color, width=2.0, dash=dash)
        scatter.label("solid: clean fit, dashed: poisoned fit", lo + 0.1, hi - 0.3)
        panels.append(scatter)

    f_clean = projections(*clean, config)
    f_pois = projections(*poisoned, config)
    lo = float(min(f_clean.min(), f_pois.min())) - 0.2
    hi = float(max(f_clean.max(), f_pois.max())) + 0.2
    edges, dens_clean = svgplot.histogram_series(f_clean, 24, lo, hi)
    _, dens_pois = svgplot.histogram_series(f_pois, 24, lo, hi)
    top = float(max(dens_clean.max(), dens_pois.max())) * 1.1
    hist = svgplot.Panel("projection statistics", lo, hi, 0.0, top)
    for i in range(len(dens_clean)):
        hist.bar(edges[i], edges[i + 1], float(dens_clean[i]), "#1f77b4")
        hist.bar(edges[i], edges[i + 1], float(dens_pois[i]), "#d62728")
    hist.label("blue: clean, red: poisoned", lo + 0.1, top * 0.95)
    panels.append(hist)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svgplot.render_document(panels))


def _toy_csv(path: str, config: ToyConfig, seeds: list[int]) -> None:
    import numpy as np

    from .adversary import projections, toy_poison, toy_sample_clean

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "index", "poisoned", "label", "projection"]
            + [f"z{i}" for i in range(config.k)]
        )
        for seed in seeds:
            y, z = toy_sample_clean(config, seed)
            yp, zp = toy_poison(y, z, config, seed)
            writer.writerows(
                np.column_stack(
                    [
                        np.full(y.size, str(seed)),
                        np.arange(y.size).astype(str),
                        (y != yp).astype(int).astype(str),
                        yp.astype(str),
                        np.char.mod("%.6f", projections(yp, zp, config)),
                        np.char.mod("%.6f", zp),
                    ]
                )
            )


@main.command("toy")
@click.option("--n", default=150, show_default=True, type=int)
@click.option("--gamma", default=0.5, show_default=True, type=float)
@click.option("--sigma", default=0.5, show_default=True, type=float)
@click.option("--v", "v_text", default="0.981,0.196", show_default=True, help="Projection direction, comma separated.")
@click.option("--seeds", default=1, show_default=True, type=int, help="Number of consecutive seeds to run.")
@click.option("--seed", default=0, show_default=True, type=int, help="First seed.")
@click.option("--svg", "svg_path", default=None, type=click.Path(), help="Write scatter and histogram panels for the first seed.")
@click.option("--csv", "csv_path", default=None, type=click.Path(), help="Write per-sample projection data for all seeds.")
@click.option("--out", default=None, type=click.Path())
def toy(
    n: int,
    gamma: float,
    sigma: float,
    v_text: str,
    seeds: int,
    seed: int,
    svg_path: str | None,
    csv_path: str | None,
    out: str | None,
) -> None:
    """Run the projection-evading attack on the Gaussian classification task."""
    import statistics

    import numpy as np

    from .adversary import ToyConfig, toy_attack_report, unit_direction

    at_least("--seeds", seeds)
    try:
        v = np.array([float(part) for part in v_text.split(",")])
    except ValueError as exc:
        raise ParameterError(f"cannot parse --v: {exc}") from exc
    unit, norm = unit_direction(v)
    config = ToyConfig(sigma=sigma, gamma=gamma, n=n, v=unit)
    records = [{"seed": s, **toy_attack_report(config, s).to_jsonable()} for s in range(seed, seed + seeds)]
    if abs(norm - 1.0) > 1e-9:
        click.echo(f"warning: |v| = {norm:.6g}, normalizing", err=True)
    if svg_path:
        _toy_svg(svg_path, config, seed)
    if csv_path:
        _toy_csv(csv_path, config, list(range(seed, seed + seeds)))
    payload: dict = {
        "n": n,
        "gamma": config.gamma,
        "sigma": sigma,
        "v": [float(x) for x in config.v],
        "mu": config.mu,
        "records": records,
    }
    if seeds > 1:
        payload["summary"] = {
            f"median_{key}": statistics.median(r[key] for r in records)
            for key in ("p_value", "attack_success_rate", "clean_accuracy")
        }
    config_doc = {
        "seeds": seeds,
        "seed": seed,
        **{key: payload[key] for key in ("n", "gamma", "sigma", "v")},
    }
    _emit("toy", config_doc, payload, out)


@main.command("probe")
@click.option("--k", default=100000, show_default=True, type=int)
@click.option("--beta", default=0.01, show_default=True, type=float)
@click.option("--gamma", default=1.0, show_default=True, type=float)
@click.option("--n", default=20, show_default=True, type=int)
@click.option("--detector", "detector_name", default="type2-tv", show_default=True, type=click.Choice(["type2-tv"]))
@click.option("--trials", default=10000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default=None, type=click.Path())
def probe(
    k: int,
    beta: float,
    gamma: float,
    n: int,
    detector_name: str,
    trials: int,
    seed: int,
    out: str | None,
) -> None:
    """Measure a clean-distribution detector against the marginally-clean sampler."""
    from .adversary import ImpossibilityConfig, imposs_risk, imposs_risk_floor
    from .harness import DETECTORS

    config = ImpossibilityConfig(k=k, beta=beta, gamma=gamma, n=n)
    estimate = imposs_risk(DETECTORS[detector_name](), config, trials, seed)
    floor = imposs_risk_floor(n, config.m)
    satisfied = floor <= estimate.p_hat + 3.0 * estimate.ci_width
    payload = {
        "k": k,
        "beta": beta,
        "gamma": gamma,
        "n": n,
        "m": config.m,
        "detector": detector_name,
        "trials": trials,
        "seed": seed,
        "risk": estimate.to_jsonable(),
        "floor": floor,
        "floor_satisfied": bool(satisfied),
    }
    config_doc = {key: payload[key] for key in ("k", "beta", "gamma", "n", "detector", "trials", "seed")}
    _emit("probe", config_doc, payload, out)
    click.echo(
        f"measured risk {estimate.p_hat:.4f} "
        f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}], "
        f"floor {floor:.4f}: {'PASS' if satisfied else 'FAIL'}",
        err=True,
    )


if __name__ == "__main__":
    main()
