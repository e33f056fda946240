"""Time one cold set-up of a workload in a fresh interpreter.

Usage::

    python3 bench/setup_probe.py SRC CONFIG [CSV RESPONSE PREDICTORS]

Times ``import lowcon`` (numpy included) through ``load_config(CONFIG)``
and, when given, ``ingest_csv(CSV, RESPONSE, PREDICTORS.split(","))``;
CONFIG ``-`` skips the config. Then runs the reference kernel of
``speed.py`` three times in the same process and prints the set-up time in
reference seconds, so the machine's speed at that moment is taken out.
"""

import statistics
import sys
import time


def main() -> None:
    src, config, *data = sys.argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import lowcon

    if config != "-":
        lowcon.load_config(config)
    if data:
        path, response, predictors = data
        lowcon.ingest_csv(path, response, predictors.split(","))
    elapsed = time.perf_counter() - t0

    from speed import REFERENCE_S, ReferenceKernel

    kernel = ReferenceKernel()
    kernel(repeat=3)
    print(elapsed * REFERENCE_S / statistics.median(kernel.samples))


if __name__ == "__main__":
    main()
