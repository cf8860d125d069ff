"""Coalesced shuffle fetch vs a per-pair reference model.

The production reduce-side fetch batches into one disk read plus one
fabric transfer per (map node -> reduce node) pair.  The reference
below is the seed's model — one pair of events per map task — kept
here as the yardstick.  The batching is an I/O-schedule change only:
job output, every counter, and the total bytes shuffled must be
identical.
"""

import pytest

from repro.mapreduce import MapReduceJob
from tests.mapreduce.test_mapreduce import (
    EXPECTED,
    WORDS,
    collect_counts,
    load_words,
    make_stack,
    wordcount_spec,
)


class PerPairJob(MapReduceJob):
    """Reference model: one disk read + one transfer per (map task,
    reduce task) pair."""

    def _fetch_coalesced(self, partition, node_name, fetched):
        spec = self.spec
        machine = self.hdfs.machine
        for _map_id, (map_node, partitions) in sorted(
                self._map_outputs.items()):
            pairs = partitions.get(partition, [])
            nbytes = len(pairs) * spec.bytes_per_pair
            if nbytes > 0:
                if spec.shuffle_transport == "local":
                    src = machine.node_by_name(map_node)
                    yield src.local_disk.read(nbytes)
                    yield machine.network.send(map_node, node_name, nbytes)
                elif spec.shuffle_transport == "lustre":
                    yield machine.shared_fs.read(nbytes)
                    machine.shared_fs.delete(nbytes)
                else:  # rdma
                    yield machine.network.send(map_node, node_name, nbytes)
                self.counters.shuffle_bytes += nbytes
            fetched.extend(pairs)


def run_wordcount(transport, job_class, num_reducers=3):
    env, machine, hdfs, yarn = make_stack()
    load_words(env, hdfs, WORDS)
    spec = wordcount_spec()
    spec.shuffle_transport = transport
    spec.num_reducers = num_reducers
    job = job_class(env, spec, hdfs)
    output = env.run(env.process(job.run_inline()))
    return env, job, output


@pytest.mark.parametrize("transport", ["local", "lustre", "rdma"])
def test_coalesced_matches_per_pair(transport):
    _, batched, out_batched = run_wordcount(transport, MapReduceJob)
    _, per_pair, out_per_pair = run_wordcount(transport, PerPairJob)
    # Identical output down to record order within each partition.
    assert out_batched == out_per_pair
    assert collect_counts(out_batched) == EXPECTED
    # Identical counters, shuffle_bytes included: coalescing moves the
    # same bytes in fewer transfers.
    assert batched.counters == per_pair.counters
    assert batched.counters.shuffle_bytes > 0


def test_coalescing_reduces_simulated_shuffle_time():
    """One latency charge per (map node, reduce node) pair instead of
    one per map task: the simulated clock should not be slower."""
    batched_env, _, _ = run_wordcount("local", MapReduceJob)
    per_pair_env, _, _ = run_wordcount("local", PerPairJob)
    assert batched_env.now <= per_pair_env.now
