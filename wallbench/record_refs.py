"""Record the references the benchmark's correctness gate checks.

Run from the repository root::

    python3 wallbench/record_refs.py

Writes ``wallbench/refs.json``: the layer digests of every (testbed, app)
image adapted through ``ComtainerSession.adapt``, and, for seeds
``0 .. SEEDS - 1``, the simulated-time results of one ``serve-mix``
pass and one ``serve-durable-crash`` pass.  Re-record only when the
simulator's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys

from run import REFS, load_program

#: Seeds whose simulated-time results are recorded.
SEEDS = 32


def main() -> int:
    load_program()
    from workloads import (APP_NAMES, TESTBEDS, ComtainerSession,
                           ServeDurableCrash, ServeMix, ServiceCrash,
                           layer_key, sim_results)

    refs = {"layers": {}, "serve": {}, "durable": {}}
    for bed in TESTBEDS:
        session = ComtainerSession(system=bed)
        refs["layers"][bed.key] = {
            app: layer_key(session.system_engine, session.adapt(app))
            for app in APP_NAMES
        }
    for seed in range(SEEDS):
        serve = ServeMix(seed, refs)
        serve.setup()
        refs["serve"][str(seed)] = sim_results(serve.service.run())

        durable = ServeDurableCrash(seed, refs)
        durable.calibrate()
        durable.setup()
        try:
            durable.service.run()
            raise SystemExit(f"seed {seed}: the durable service did not crash")
        except ServiceCrash:
            pass
        refs["durable"][str(seed)] = sim_results(durable.service.restart().run())
        print(f"seed {seed}: {refs['serve'][str(seed)]}", file=sys.stderr)
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
