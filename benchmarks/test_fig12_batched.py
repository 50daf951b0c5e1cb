"""Figure 12 — streaming vs batched update ingestion throughput."""

from benchmarks.conftest import emit, run_once
from repro.bench.experiments import fig12_batched_updates


def test_fig12_streaming_vs_batched(benchmark):
    report = run_once(
        benchmark,
        lambda: fig12_batched_updates(
            datasets=("AM", "GO", "LJ"),
            workloads=("insertion", "deletion", "mixed"),
            batch_size=300,
            num_batches=2,
        ),
    )
    emit("Figure 12: streaming vs batched ingestion", report)

    for workload, per_dataset in report.items():
        for dataset, entry in per_dataset.items():
            assert entry["streaming_updates_per_second"] > 0, (workload, dataset)
            assert entry["batched_updates_per_second"] > 0, (workload, dataset)
            # Under the device execution model a whole batch collapses into a
            # handful of parallel kernel steps — the source of the paper's
            # three-orders-of-magnitude batched speedup.
            assert entry["modelled_parallel_speedup"] > 50.0, (workload, dataset)

