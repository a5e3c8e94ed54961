"""The wickns harness: config in, reproducible artifact directory out.

Every run writes resolved_config.ini, the command's CSV tables,
report.json with named checks, and manifest.json with a sha256 per file.
`wickns rerun --manifest ...` replays a manifest and verifies the bytes.
This drives the installed CLI in-process on a pair of tiny experiments.
"""

import json
import os
import tempfile

from wickns.cli import main

CONFIG = """\
[run]
command = sample-noise
seed = 42

[solver]
cutoff = 8
dt = 0.03125
horizon = 0.5

[noise]
kind = bessel
alpha = 0.75
"""

if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="wickns-demo-") as work:
        cfg = os.path.join(work, "experiment.ini")
        with open(cfg, "w") as fh:
            fh.write(CONFIG)

        out = os.path.join(work, "out")
        code = main(["run", "--config", cfg, "--out", out])
        print(f"run exit {code}; outputs: {sorted(os.listdir(out))}")

        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        print(f"final mass {report['final_mass']:.4f} "
              f"(law predicts {report['mean_final_mass']:.4f} on average), checks {report['checks']}")

        # replay from the manifest alone: the original config file is not needed
        replay = os.path.join(work, "replay")
        code = main(["rerun", "--manifest", os.path.join(out, "manifest.json"), "--out", replay])
        print(f"rerun exit {code} (0 means every output matched byte for byte)")

        # sweeps fan one scalar key across cells and aggregate a row per cell
        sweep_cfg = os.path.join(work, "sweep.ini")
        with open(sweep_cfg, "w") as fh:
            fh.write(CONFIG + "\n[sweep]\naxis = noise.alpha\nvalues = 0.25, 0.5, 1.0\n")
        sweep_out = os.path.join(work, "sweep")
        code = main(["sweep", "--config", sweep_cfg, "--out", sweep_out])
        with open(os.path.join(sweep_out, "sweep.csv")) as fh:
            table = fh.read().strip().splitlines()
        print(f"sweep exit {code}; {len(table) - 1} cells")
        for line in table:
            print("  " + ",".join(line.split(",")[:6]))
