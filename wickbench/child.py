"""One repetition of a workload in a fresh interpreter, as a CLI user runs it.

    python3 wickbench/child.py MODE CONFIG SEED OUT RESULT

MODE is `setup` (import and parse only), `run` or `trace` (the same run with
the span tracer installed).  Times `import wickns.cli` plus `parse_config` of
CONFIG as the set-up, then `wickns.cli.main(["run", ...])` as the run, and
writes them, the exit code and any spans as JSON to RESULT.  The parent
supplies PYTHONPATH and measures CPU time and peak memory with wait4.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> None:
    mode, config, seed, out, result_path = argv
    t0 = time.perf_counter()
    import wickns.cli

    wickns.config.parse_config(config)
    result = {"setup_s": time.perf_counter() - t0, "wickns": os.path.abspath(wickns.__file__)}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(wickns)
        t1 = time.perf_counter()
        result["exit"] = wickns.cli.main(["run", "--config", config, "--seed", seed, "--out", out])
        result["run_s"] = time.perf_counter() - t1
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["fft_len"] = tracer.fft_len
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
