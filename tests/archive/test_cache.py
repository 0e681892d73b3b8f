"""EvalCache: subset parity, memoization, and warm-archive determinism.

The warm-rerun test is the acceptance criterion of the archive subsystem:
a seeded evolution run against a populated archive must return a
bit-identical :class:`SearchResult` while answering >0 evaluations from
cache (visible in the journal's ``run_end`` event).
"""

import numpy as np
import pytest

from repro.archive.cache import EvalCache, model_fingerprint, \
    oracle_fingerprint
from repro.archive.store import ArchitectureArchive
from repro.baselines.evolution import EvolutionConfig, EvolutionSearch
from repro.predictor.dataset import collect_latency_dataset
from repro.proxy.accuracy_model import AccuracyOracle
from repro.runtime.telemetry import RunJournal, read_journal
from repro.search_space.space import Architecture


class TestSubsetParity:
    def test_predict_population_rows_independent_of_batch(
            self, tiny_space, tiny_predictor):
        """The precondition the whole cache rests on: computing only the
        missing rows of a batch yields the same bits as the full batch."""
        rng = np.random.default_rng(0)
        ops = tiny_space.sample_indices(64, rng)
        full = tiny_predictor.predict_population(ops)
        for sel in (np.arange(5), np.array([0, 13, 63]),
                    np.arange(64)[::2], np.array([7])):
            subset = tiny_predictor.predict_population(ops[sel])
            assert np.array_equal(subset, full[sel])

    def test_cached_batch_equals_direct_batch(self, tiny_space,
                                              tiny_predictor):
        rng = np.random.default_rng(1)
        ops = tiny_space.sample_indices(40, rng)
        cache = EvalCache(tiny_predictor)
        # warm half the rows first, then ask for everything
        cache.predict_population(ops[::2])
        mixed = cache.predict_population(ops)
        direct = tiny_predictor.predict_population(ops)
        assert np.array_equal(mixed, direct)
        assert cache.predict_hits == 20 and cache.predict_misses == 40


class TestMemoization:
    def test_predict_counters(self, tiny_space, tiny_predictor):
        rng = np.random.default_rng(2)
        ops = tiny_space.sample_indices(10, rng)
        cache = EvalCache(tiny_predictor)
        cache.predict_population(ops)
        assert (cache.predict_hits, cache.predict_misses) == (0, 10)
        cache.predict_population(ops)
        assert (cache.predict_hits, cache.predict_misses) == (10, 10)
        counters = cache.counters()
        assert counters["cache_hit_rate"] == 0.5

    def test_fitness_memoizes_per_epoch_count(self, tiny_space, tiny_oracle):
        cache = EvalCache(oracle=tiny_oracle)
        arch = tiny_space.sample(np.random.default_rng(3))
        a = cache.fitness(arch, epochs=50)
        b = cache.fitness(arch, epochs=50)
        c = cache.fitness(arch, epochs=360)
        assert a == b == tiny_oracle.evaluate(arch, epochs=50).top1
        assert c == tiny_oracle.evaluate(arch, epochs=360).top1
        assert cache.fitness_hits == 1 and cache.fitness_misses == 2

    def test_predict_arch_matches_population_path(self, tiny_space,
                                                  tiny_predictor):
        arch = tiny_space.sample(np.random.default_rng(4))
        cache = EvalCache(tiny_predictor)
        scalar = cache.predict_arch(arch)
        batch = tiny_predictor.predict_population(
            np.asarray([arch.op_indices]))
        assert scalar == batch[0]

    def test_needs_predictor_or_oracle(self):
        with pytest.raises(ValueError):
            EvalCache()


class TestArchiveRoundTrip:
    def test_flush_and_preload(self, tmp_path, tiny_space, tiny_predictor,
                               tiny_oracle):
        path = str(tmp_path / "arc.jsonl")
        rng = np.random.default_rng(5)
        ops = tiny_space.sample_indices(12, rng)
        arch = Architecture(tuple(ops[0].tolist()))

        with ArchitectureArchive(path, space=tiny_space) as arc:
            cache = EvalCache(tiny_predictor, tiny_oracle, archive=arc)
            first = cache.predict_population(ops)
            top1 = cache.fitness(arch, epochs=50)
            written = cache.flush(engine="test", seed=5,
                                  config_fingerprint="fp")
            assert written == 12

        with ArchitectureArchive(path, space=tiny_space) as arc:
            warm = EvalCache(tiny_predictor, tiny_oracle, archive=arc)
            again = warm.predict_population(ops)
            assert np.array_equal(again, first)
            assert warm.predict_misses == 0
            assert warm.fitness(arch, epochs=50) == top1
            assert warm.fitness_hits == 1 and warm.fitness_misses == 0
            # provenance written through
            record = arc.get(tuple(ops[0].tolist()))
            assert record.provenance == {"engine": "test", "seed": 5,
                                         "fingerprint": "fp"}
            assert record.score == top1

    def test_stale_fingerprint_is_ignored(self, tmp_path, tiny_space,
                                          tiny_predictor, tiny_latency_model):
        from repro.predictor.mlp import MLPPredictor

        path = str(tmp_path / "arc.jsonl")
        rng = np.random.default_rng(6)
        ops = tiny_space.sample_indices(6, rng)
        with ArchitectureArchive(path, space=tiny_space) as arc:
            cache = EvalCache(tiny_predictor, archive=arc)
            cache.predict_population(ops)
            cache.flush()
        # a differently-fitted predictor must not trust those extras
        other = MLPPredictor(tiny_space, hidden=(8,), seed=9)
        data = collect_latency_dataset(tiny_latency_model, 80,
                                       np.random.default_rng(7))
        other.fit(data, epochs=5, batch_size=32, lr=3e-3, weight_decay=0.0)
        assert model_fingerprint(other) != model_fingerprint(tiny_predictor)
        with ArchitectureArchive(path, space=tiny_space) as arc:
            cold = EvalCache(other, archive=arc)
            cold.predict_population(ops)
            assert cold.predict_hits == 0

    def test_oracle_fingerprint_distinguishes_seeds(self, tiny_space):
        a = AccuracyOracle(tiny_space)
        b = AccuracyOracle(tiny_space, seed=1234)
        assert oracle_fingerprint(a) != oracle_fingerprint(b)
        assert oracle_fingerprint(a) == oracle_fingerprint(
            AccuracyOracle(tiny_space))


class TestEngineWiring:
    def test_cache_must_wrap_the_engines_models(self, tiny_space,
                                                tiny_predictor, tiny_oracle):
        from repro.predictor.analytic import AnalyticCostPredictor

        other = AnalyticCostPredictor(tiny_space, "macs_m")
        cache = EvalCache(other)
        config = EvolutionConfig(space=tiny_space, target=5.0,
                                 population_size=4, tournament_size=2,
                                 cycles=2)
        with pytest.raises(ValueError, match="wrap this engine's predictor"):
            EvolutionSearch(config, tiny_predictor, tiny_oracle, cache=cache)


def run_evolution(tiny_space, tiny_predictor, tiny_oracle, cache=None,
                  journal=None):
    config = EvolutionConfig(space=tiny_space, target=4.0,
                             population_size=8, tournament_size=4,
                             cycles=12, seed=17)
    engine = EvolutionSearch(config, tiny_predictor, tiny_oracle, cache=cache)
    return engine.search(journal=journal)


class TestWarmArchiveDeterminism:
    def test_warm_rerun_is_bit_identical_with_cache_hits(
            self, tmp_path, tiny_space, tiny_predictor, tiny_oracle):
        path = str(tmp_path / "arc.jsonl")
        trace = str(tmp_path / "warm.jsonl")

        cold = run_evolution(tiny_space, tiny_predictor, tiny_oracle)

        # populate the archive with a cached run (itself bit-identical)
        with ArchitectureArchive(path, space=tiny_space) as arc:
            cache = EvalCache(tiny_predictor, tiny_oracle, archive=arc)
            populate = run_evolution(tiny_space, tiny_predictor, tiny_oracle,
                                     cache=cache)
        assert populate.architecture == cold.architecture
        assert populate.predicted_metric == cold.predicted_metric

        # warm rerun against the populated archive, journal attached
        journal = RunJournal(trace)
        with ArchitectureArchive(path, space=tiny_space) as arc:
            warm_cache = EvalCache(tiny_predictor, tiny_oracle, archive=arc)
            warm = run_evolution(tiny_space, tiny_predictor, tiny_oracle,
                                 cache=warm_cache, journal=journal)
        journal.close()

        assert warm.architecture == cold.architecture
        assert warm.predicted_metric == cold.predicted_metric
        assert warm.num_search_steps == cold.num_search_steps
        for name, array in warm.trajectory.as_arrays().items():
            np.testing.assert_array_equal(
                array, cold.trajectory.as_arrays()[name])

        run_end = [e for e in read_journal(trace)
                   if e.get("event") == "run_end"][-1]
        assert run_end["cache_hits"] > 0
        assert run_end["cache_hit_rate"] > 0
        # the whole rerun was answered from the archive: the predictor and
        # oracle were never invoked for a genotype the cold run evaluated
        assert run_end["fitness_misses"] == 0
