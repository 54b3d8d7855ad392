"""Workloads of the scbm benchmark: one ``scbm`` CLI call each, generated from a seed.

Every workload runs with ``threads = 1``.  Results do not depend on the thread
count by contract, and a serial child keeps the spread down to CPU speed on a
small shared machine; parallel scaling is out of scope.  Replica counts are
scaled down from the CLI defaults so that several calls fit in one run and the
benchmark can report medians.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # scbm subcommand
    settings: str  # body of the subcommand's config section
    why: str  # one-sentence rationale, mirrored in BENCHMARK.json
    roadmap: str  # the ROADMAP item the workload is built to show or bypass
    verdicts: int  # verdict rows the CLI counts toward exit 3
    approx_rows: int = 0  # rows that must carry the ``approx`` flag (beta < 1)
    setup: tuple = ()  # lazy set-up run before the timed call: (module, function, args)

    @property
    def operations(self) -> int:
        return self.verdicts + self.approx_rows

    def scbm_seed(self, seed: int, rep: int) -> int:
        """Seed of the ``rep``-th CLI call of a run started with ``seed``."""
        digest = hashlib.sha256(f"{self.name}:{seed}:{rep}".encode()).digest()
        return int.from_bytes(digest[:4], "big") >> 1

    def config(self, scbm_seed: int) -> str:
        """The generated config file: the seed, one thread, and the workload's settings."""
        return f"[run]\nseed = {scbm_seed}\nthreads = 1\n\n[{self.command}]\n{self.settings}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="duality",
            command="scbm-duality",
            # default parameters with replica counts scaled down together; the
            # negative control's gamma scale is raised from 1.2 to 2 so that it
            # keeps its power at 1000 replicas (at 1.2 and 5000 it missed 3 of 15
            # calls, z between -1.5 and -2.9; at 2 and 1000, z is about -7)
            settings=(
                "laplace_n = 200\ncontrol_n = 1000\ncontrol_scale = 2\nabsorbing_n = 100\n"
                "occupation_n = 100\nvacancy_n = 200\nsmoke_n = 20\n"
            ),
            why=(
                "scbm-duality at default parameters except control_scale = 2, with small replica counts: "
                "per-replica runs on about 26 clusters expose the fixed per-call cost of step_positions"
            ),
            roadmap="shows items 1 (segmented replica engine) and 5 (snapshots only at requested times)",
            verdicts=6,
        ),
        Workload(
            name="survival-beta1",
            command="survival",
            settings="replicas = 320\nexpect_decreasing = true\n",
            why=(
                "survival at beta = 1, already batched with about 3e5 clusters per batch: per-cluster "
                "cost of step_positions, _resolve_clusters and gamma draws dominates"
            ),
            roadmap="bypasses item 1: ns per cluster must not rise under a replica-id layout",
            verdicts=1,
        ),
        Workload(
            name="survival-beta05",
            command="survival",
            settings="beta = 0.5\ntruncation = 4\nhorizons = 1,2\nreplicas = 4\nbatch = 4\n",
            why=(
                "survival at beta = 0.5 in one small batch: table fragment draws in the branching "
                "layer dominate, after a one-off entrance-table build in set-up"
            ),
            roadmap="shows item 2 (beta < 1 cost cliff); item 1 barely touches it",
            verdicts=0,
            approx_rows=2,
            setup=(("branching", "entrance_table", (0.5,)),),
        ),
        Workload(
            name="oracle",
            command="verify-duality",
            settings="cases = 1x2,2x2,2x3,3x2,3x3\n",
            why=(
                "verify-duality with five lattice cases: no RNG, no flow, no branching; the generator "
                "identity and crossing-array encoding take nearly all the time"
            ),
            roadmap="guards item 5: the single crossing-array encoder must not slow oracle or lattice",
            verdicts=9,
        ),
    )
}
