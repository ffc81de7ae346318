"""The paper's claims as paired differences over seeds.

Tables 1–2 (§6.4) order the schemes; §5, §6.3 and §6.5 remark on ρ, the
unlabeled selection and the size and noise of the log.  Each seed here is
one corpus and its log (:func:`reseed`); every scheme runs on the same
queries and judgements, so a seed gives one *paired* difference per scheme
pair, and a claim is judged by how those differences spread over the
seeds.  An ablation is the same run with one config field replaced
(:data:`AXES`, :func:`sweep`).

Run with::

    python -m repro.experiments.claims                   # Table 1, paper scale, 10 seeds
    python -m repro.experiments.claims --scaled          # 30 images/category, 90 sessions, 30 queries
    python -m repro.experiments.claims --table 2 --seeds 3
    python -m repro.experiments.claims --scaled --sweep rho=0.01,0.02,0.1

Seeds start at the table's own (7 for Table 1, 11 for Table 2).  The last
line of stdout is one JSON record of the run.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import binomtest

from repro.cbir.database import ImageDatabase
from repro.datasets.corel import build_corel_dataset
from repro.datasets.dataset import ImageDataset
from repro.evaluation.results import ResultsTable
from repro.experiments.config import SCALED, ExperimentConfig, table1_config, table2_config
from repro.experiments.pipeline import run_paper_experiment
from repro.logdb.simulation import collect_feedback_log

__all__ = ["AXES", "PAIRS", "TIE", "vary", "reseed", "sweep", "claims"]

#: Each sweep axis and the ``ExperimentConfig`` field it replaces, as
#: ``(section, field)``; a section of ``None`` is the config itself.
AXES: Dict[str, Tuple[Optional[str], str]] = {
    "rho": ("coupled", "rho"),
    "delta": ("coupled", "delta"),
    "num_unlabeled": (None, "num_unlabeled"),
    "num_labeled": ("protocol", "num_labeled"),
    "log_sessions": ("log", "num_sessions"),
    "log_noise": ("log", "noise_rate"),
    "selection": (None, "selection"),
}

#: The paired differences reported, ``(scheme, baseline)``: the coupling,
#: the log and the feedback itself.
PAIRS = (("lrf-csvm", "lrf-2svms"), ("lrf-2svms", "rf-svm"), ("rf-svm", "euclidean"))

#: A MAP difference this small is a tie: two schemes whose per-query
#: precisions are a permutation of each other's sum them in another order,
#: which read −1.1e-16 on a 4-query corpus.
TIE = 1e-12


def _current(config: ExperimentConfig, axis: str):
    section, name = AXES[axis]
    return getattr(config if section is None else getattr(config, section), name)


def vary(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """*config* with the field of *axis* set to *value*."""
    section, name = AXES[axis]
    if section is None:
        return replace(config, **{name: value})
    return replace(config, **{section: replace(getattr(config, section), **{name: value})})


def reseed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """*config* at another seed: the corpus at *seed*, its log at ``seed + 1``."""
    return replace(
        config,
        dataset=replace(config.dataset, seed=seed),
        log=replace(config.log, seed=seed + 1),
    )


def sweep(
    config: ExperimentConfig,
    axis: Optional[str] = None,
    values: Sequence = (),
    *,
    environment: Optional[Tuple[ImageDataset, ImageDatabase]] = None,
) -> List[ResultsTable]:
    """One results table per value of *axis* (or for *config* alone, without one).

    Every table is on *config*'s corpus, built once (or *environment*,
    ``build_environment(config)``); a log is collected once per distinct
    log config.
    """
    variants = [vary(config, axis, value) for value in values] if axis else [config]
    if environment is None:
        dataset, databases = build_corel_dataset(config.dataset), {}
    else:
        dataset, databases = environment[0], {config.log: environment[1]}
    tables = []
    for variant in variants:
        if variant.log not in databases:
            log = collect_feedback_log(dataset, variant.log)
            databases[variant.log] = ImageDatabase(dataset, log_database=log)
        tables.append(run_paper_experiment(variant, environment=(dataset, databases[variant.log])))
    return tables


def _pair(diffs: List[float], query_diffs: np.ndarray) -> dict:
    wins, losses = sum(d > TIE for d in diffs), sum(d < -TIE for d in diffs)
    q1, median, q3 = np.percentile(diffs, [25, 50, 75])
    return {
        "diffs": diffs, "median": float(median), "q1": float(q1), "q3": float(q3),
        "min": min(diffs), "max": max(diffs), "wins": wins, "losses": losses,
        "p": float(binomtest(wins, wins + losses).pvalue) if wins + losses else 1.0,
        "query_wins": int((query_diffs > 0).sum()), "query_losses": int((query_diffs < 0).sum()),
    }


def claims(
    config: ExperimentConfig, seeds: Sequence[int], axis: Optional[str] = None, values: Sequence = ()
) -> dict:
    """Every scheme's MAP per seed and setting, and the paired differences.

    Per setting and pair: the per-seed differences with their median,
    quartiles, range, wins, losses and sign-test p (ties, within
    :data:`TIE`, dropped), and the
    per-query wins pooled over the seeds (``query_wins`` / ``query_losses``;
    the queries of one seed share a corpus and a log, so they are not
    independent and carry no test).
    """
    settings = [f"{axis}={value}" for value in values] if axis else ["base"]
    per_seed = []
    query_maps: Dict[Tuple[str, str], List[float]] = {}
    for seed in seeds:
        maps = {}
        for setting, table in zip(settings, sweep(reseed(config, seed), axis, values)):
            maps[setting] = {name: table.result(name).map_score for name in table.methods}
            for name in table.methods:
                query_maps.setdefault((setting, name), []).extend(
                    np.mean(list(curve.values())) for curve in table.result(name).per_query
                )
        per_seed.append({"seed": int(seed), "map": maps})
    summary = {
        setting: {
            f"{a} - {b}": _pair(
                [run["map"][setting][a] - run["map"][setting][b] for run in per_seed],
                np.subtract(query_maps[setting, a], query_maps[setting, b]),
            )
            for a, b in PAIRS
            if a in config.algorithms and b in config.algorithms
        }
        for setting in settings
    }
    return {"seeds": [int(s) for s in seeds], "axis": axis, "values": list(values),
            "per_seed": per_seed, "summary": summary}


def _render(record: dict) -> str:
    """The record as text: per-seed MAPs, then each pair's spread over the seeds."""
    summary = record["summary"]
    schemes = next(iter(record["per_seed"][0]["map"].values()))
    lines = [f"seed setting: MAP of {', '.join(schemes)} | {', '.join(next(iter(summary.values())))}"]
    for i, run in enumerate(record["per_seed"]):
        for setting, maps in run["map"].items():
            cells = [f"{score:.4f}" for score in maps.values()]
            cells += ["|"] + [f"{s['diffs'][i]:+.4f}" for s in summary[setting].values()]
            lines.append(f"{run['seed']:>4} {setting}: " + " ".join(cells))
    for setting, pairs in record["summary"].items():
        lines.append(f"\n{setting}: median [q1, q3] (range)  seeds +/-  sign p  queries +/-")
        for pair, s in pairs.items():
            lines.append(
                f"  {pair:<22} {s['median']:+.5f} [{s['q1']:+.5f}, {s['q3']:+.5f}] "
                f"({s['min']:+.4f} … {s['max']:+.4f})  {s['wins']}/{s['losses']}  "
                f"p={s['p']:.3f}  {s['query_wins']}/{s['query_losses']}"
            )
    lines.append("(per-query counts pool the seeds; one seed's queries are not independent)")
    return "\n".join(lines)


def _main() -> None:
    parser = argparse.ArgumentParser(description="Tables 1-2 and the ablations as paired differences")
    parser.add_argument("--table", type=int, choices=(1, 2), default=1)
    parser.add_argument("--scaled", action="store_true", help="30 images/category, 90 sessions, 30 queries")
    parser.add_argument("--seeds", type=int, default=10, help="how many seeds, from the table's own")
    parser.add_argument("--sweep", metavar="AXIS=V1,V2,...", help=f"one axis of {sorted(AXES)}")
    args = parser.parse_args()
    config = (table1_config if args.table == 1 else table2_config)(**(SCALED if args.scaled else {}))
    axis, values = None, []
    if args.sweep:
        axis, _, text = args.sweep.partition("=")
        if axis not in AXES:
            parser.error(f"unknown axis '{axis}', expected one of {sorted(AXES)}")
        kind = type(_current(config, axis))
        try:
            values = [kind(value) for value in text.split(",")]
        except ValueError as error:
            parser.error(f"--sweep {axis}: {error}")
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    first = config.dataset.seed
    record = claims(config, range(first, first + args.seeds), axis, values)
    print(_render(record))
    print(json.dumps(dict(record, table=args.table, scaled=args.scaled)))


if __name__ == "__main__":
    _main()
