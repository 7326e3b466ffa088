#!/usr/bin/env python3
"""Record a run, replay it bit-identically, and diff the archives.

Walks the full record-then-replay loop from docs/traces.md:

1. run a scenario and *record* it -- its run archive plus the drawn
   stimulus (every arrival, every exact-time update);
2. *replay* the recording on the same engine, then cross-engine on the
   per-query reference path -- both must reproduce every simulated-time
   telemetry column byte for byte;
3. diff the recording against the replay's archive (a recording too)
   with the same oracle `repro archive diff --strict` uses;
4. feed a real CSV request log through the trace-dataloader registry and
   run it as a first-class workload.

Run:  python examples/trace_replay.py
"""

import os
import tempfile

from repro.scenarios import Scenario, UpdateSpec, WorkloadSpec, execute_scenario
from repro.scenarios import trace_scenario
from repro.telemetry.archive import archive_diff, read_archive
from repro.traces import load_trace, read_recording, replay_recording


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="trace-replay-")
    rec_path = os.path.join(workdir, "steady.rec.npz")

    # --- 1. Record: run once, freeze the drawn stimulus ------------------
    scenario = Scenario(
        name="steady-demo",
        n_servers=10,
        p=4,
        dataset_size=1e6,
        seed=42,
        workload=WorkloadSpec(kind="poisson", rate=12.0, duration=10.0),
        updates=UpdateSpec(rate=5.0, zipf_s=1.1),
    )
    execute_scenario(scenario, engine="batched", record_path=rec_path)
    rec = read_recording(rec_path)
    print(f"Recorded {rec.stimulus.arrivals.size} arrivals and "
          f"{len(rec.stimulus.updates)} updates to {rec_path}")
    print(f"  engine={rec.engine} kernel={rec.kernel}")

    # --- 2. Replay: same engine, then cross-engine -----------------------
    same = replay_recording(rec_path)
    print(f"\nReplay on {same.engine}/{same.kernel}: "
          f"identical={same.identical}")
    cross = replay_recording(rec_path, engine="reference")
    print(f"Replay on {cross.engine}/{cross.kernel}: "
          f"identical={cross.identical}")
    assert same.identical and cross.identical, "replay must be bit-identical"

    # --- 3. Archive-level diff (what `repro archive diff --strict` runs) -
    replay_arch = os.path.join(workdir, "replayed.npz")
    replay_recording(rec_path, archive_path=replay_arch)
    diff = archive_diff(read_archive(rec_path), read_archive(replay_arch))
    print(f"\nArchive diff: identical={diff['identical']} "
          f"({len(diff['columns'])} columns compared, wall-clock omitted)")
    assert diff["identical"]

    # --- 4. A real request log as a workload ------------------------------
    csv_path = os.path.join(workdir, "requests.csv")
    with open(csv_path, "w") as fp:
        fp.write("time,kind,pos\n")
        for i in range(200):
            fp.write(f"{0.05 * i:.2f},query,\n")
        fp.write("5.0,update,0.25\n")
    trace = load_trace(csv_path)
    print(f"\nLoaded {trace.n_queries} queries / {trace.n_updates} updates "
          f"from {csv_path}")
    execution = execute_scenario(trace_scenario(csv_path, n_servers=10, p=4,
                                                dataset_size=1e6))
    log = execution.deployment.log
    print(f"Trace run: {log.n_records} completed, "
          f"{execution.updates_applied} updates applied")

    print("\nAll replays bit-identical; see docs/traces.md for the contract.")


if __name__ == "__main__":
    main()
