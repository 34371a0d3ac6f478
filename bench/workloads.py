"""The four benchmark workloads, each a fixed list of boxprobe CLI operations.

Every workload is a closed loop: one client, one process, each operation
starting when the previous one ends.  One pass runs the list once; a run
repeats whole passes.  Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inputs import TableSpec


@dataclass(frozen=True)
class Op:
    """One CLI operation: a subcommand with its method flags, on one input table.

    The runner appends ``--data``, ``--model``, ``--target`` and ``--out``.
    """

    label: str
    table: str
    args: tuple[str, ...]

    @property
    def method(self) -> str:
        return self.args[0]

    def flag(self, name: str) -> str | None:
        if name not in self.args:
            return None
        return self.args[self.args.index(name) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    tables: tuple[TableSpec, ...]
    models: dict[str, tuple[str, ...]]  # table -> `boxprobe fit` flags
    ops: tuple[Op, ...]
    # (kind, label a, label b): cross-operation identities checked every pass.
    identities: tuple[tuple[str, str, str], ...]
    floor_op: str  # whose requested rows make refmodels.floor_s
    min_passes: int  # guarantees ten operations beyond the tail percentile
    subprocess: bool = False  # each operation a fresh `python -m boxprobe`

    @property
    def tail_quantile(self) -> float:
        """Highest quantile with at least ten operations beyond it in every run."""
        return 1.0 - 10.0 / (self.min_passes * len(self.ops))


def _ops(table: str, *specs: tuple[str, tuple[str, ...]]) -> tuple[Op, ...]:
    return tuple(Op(label, table, args) for label, args in specs)


GRID_SWEEP = Workload(
    name="grid_sweep",
    tables=(TableSpec("grid", n=1500, continuous=8),),
    models={"grid": ("--kind", "linear")},
    ops=_ops(
        "grid",
        ("pd:x1", ("pd", "--feature", "x1")),
        ("pd-importance:x2", ("pd-importance", "--feature", "x2")),
        ("firm:x2", ("firm", "--feature", "x2")),
        ("pi:x3", ("pi", "--feature", "x3")),
        ("pfi-exhaustive:x3", ("pfi", "--mode", "exhaustive", "--feature", "x3")),
        ("ice:x4", ("ice", "--feature", "x4", "--row", "7")),
    ),
    identities=(
        ("same_score", "pd-importance:x2", "firm:x2"),
        ("pfi_is_mean_pi", "pfi-exhaustive:x3", "pi:x3"),
    ),
    floor_op="pd:x1",
    min_passes=4,
)

BLACKBOX_BOUND = Workload(
    name="blackbox_bound",
    tables=(TableSpec("knn", n=2000, continuous=8),),
    models={"knn": ("--kind", "knn", "--k", "5")},
    ops=_ops(
        "knn",
        ("pfi-t1:x1", ("pfi", "--feature", "x1", "--repeats", "2", "--threads", "1")),
        ("pfi-t2:x1", ("pfi", "--feature", "x1", "--repeats", "2", "--threads", "2")),
        ("ale:x2", ("ale", "--feature", "x2")),
        ("ame:x3", ("ame", "--feature", "x3")),
        ("lime:x4", ("lime", "--feature", "x4", "--row", "3")),
        ("shapley-mc:x5", ("shapley", "--feature", "x5", "--row", "3", "--samples", "200")),
    ),
    identities=(("same_bytes", "pfi-t1:x1", "pfi-t2:x1"),),
    floor_op="pfi-t1:x1",
    min_passes=4,
)

MIXED_COALITIONS = Workload(
    name="mixed_coalitions",
    tables=(
        TableSpec("small", n=150, continuous=4, categorical=2, distinct=40),
        TableSpec("large", n=1000, continuous=6, categorical=2, distinct=40),
    ),
    models={"small": ("--kind", "linear"), "large": ("--kind", "linear")},
    ops=_ops(
        "small",
        ("sfimp:x1", ("sfimp", "--feature", "x1")),
        ("pd-set:x2,c1", ("pd", "--feature", "x2,c1")),
    )
    + _ops(
        "large",
        # No feature-set pd here: its observed grid would be about 10^9 rows.
        ("shapley-exact:x1", ("shapley", "--feature", "x1", "--row", "4")),
        ("pd:x2", ("pd", "--feature", "x2")),
        ("pd:c1", ("pd", "--feature", "c1")),
        ("ici:x3", ("ici", "--feature", "x3", "--row", "5")),
        ("pfi-exhaustive:x3", ("pfi", "--mode", "exhaustive", "--feature", "x3")),
    ),
    identities=(),
    floor_op="pd:x2",
    min_passes=4,
)

CLI_STARTUP = Workload(
    name="cli_startup",
    tables=(TableSpec("cli", n=2000, continuous=8),),
    models={"cli": ("--kind", "linear")},
    ops=_ops(
        "cli",
        ("fit", ("fit", "--kind", "linear")),
        ("pd-20:x1", ("pd", "--feature", "x1", "--grid-points", "20")),
        ("me:x2", ("me", "--feature", "x2", "--row", "11")),
        ("lime:x3", ("lime", "--feature", "x3", "--row", "11")),
        ("shapley-mc:x4", ("shapley", "--feature", "x4", "--row", "11", "--samples", "200")),
        ("pfi:x5", ("pfi", "--feature", "x5")),
    ),
    identities=(),
    floor_op="pd-20:x1",
    min_passes=6,
    subprocess=True,
)

WORKLOADS = {w.name: w for w in (GRID_SWEEP, BLACKBOX_BOUND, MIXED_COALITIONS, CLI_STARTUP)}
