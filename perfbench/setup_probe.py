"""Time what a fresh process does before the first prior row is scored.

Usage: python3 perfbench/setup_probe.py SPEC_JSON

SPEC_JSON names the target and prior files, the bandwidth scales, the
number of prior batches and the batch seed. The probe times
``import iwre``, ``load_embeddings`` of both files and, for each scale,
``fit_kde`` of the target plus ``fit_prior_batched`` with batches of
min(4096, N) rows as the CLI makes them, and prints the times as one JSON
line.
"""

import json
import sys
import time


def main(spec: dict) -> None:
    t0 = time.perf_counter()
    import iwre

    t1 = time.perf_counter()
    target = iwre.load_embeddings(spec["target"])
    prior = iwre.load_embeddings(spec["prior"])
    t2 = time.perf_counter()
    for scale in spec["scales"]:
        bandwidth = iwre.BandwidthSpec(scale)
        iwre.fit_kde(target, bandwidth)
        batches = iwre.PriorBatchSpec(
            min(4096, prior.rows), spec["num_batches"], rng_seed=spec["seed"]
        )
        iwre.fit_prior_batched(prior, batches, bandwidth)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "fit_s": t3 - t2,
                      "setup_s": t3 - t0}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
