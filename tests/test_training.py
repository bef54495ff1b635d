"""Tests for the training simulation: memory math, checkpointing, recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, ClusterError, ConfigError
from repro.training import (
    ClusterSpec,
    FailureModel,
    GPUSpec,
    ParallelConfig,
    TrainingRun,
    fits,
    get_model_spec,
    loss_at_tokens,
    max_trainable_params,
    model_state_bytes_per_gpu,
    plan_frequency,
    plan_parallelism,
    step_time,
    total_bytes_per_gpu,
    young_daly_interval,
)
from repro.training.checkpoint import (
    MODES,
    ArrayFormat,
    CheckpointEngine,
    DisaggregatedFormat,
    FileFormat,
    consolidate,
    expected_overhead_fraction,
    make_state,
    reshard,
    shard_state,
    states_equal,
)
from repro.training.cluster import GIB


class TestModelSpec:
    def test_param_count_formula(self):
        spec = get_model_spec("base-7b")
        assert 6e9 < spec.params < 8e9

    def test_flops_rule(self):
        spec = get_model_spec("tiny-125m")
        assert spec.flops_per_token() == pytest.approx(6.0 * spec.params)

    def test_activation_checkpointing_saves_memory(self):
        spec = get_model_spec("small-1b")
        assert spec.activation_bytes(4, checkpoint_activations=True) < spec.activation_bytes(
            4, checkpoint_activations=False
        )

    def test_validation(self):
        from repro.training.model_spec import TrainModelSpec

        with pytest.raises(ConfigError):
            TrainModelSpec("bad", num_layers=2, hidden_size=100, num_heads=3)

    def test_unknown_zoo_name(self):
        with pytest.raises(ConfigError):
            get_model_spec("mega-1t")


class TestCluster:
    def test_world_size(self):
        assert ClusterSpec(num_nodes=4, gpus_per_node=8).world_size == 32

    def test_collective_bandwidth_tiers(self):
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8)
        assert cluster.collective_bandwidth(4) == cluster.intra_node_bw
        assert cluster.collective_bandwidth(16) == cluster.inter_node_bw

    def test_allreduce_time_formula(self):
        cluster = ClusterSpec()
        t = cluster.allreduce_time(1e9, 8)
        expected = 2.0 * 7 / 8 * 1e9 / cluster.intra_node_bw
        assert t == pytest.approx(expected)

    def test_allreduce_trivial_group(self):
        assert ClusterSpec().allreduce_time(1e9, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ClusterError):
            ClusterSpec(mtbf_hours=0)

    def test_failure_model_seeded(self):
        cluster = ClusterSpec(mtbf_hours=1.0)
        a = FailureModel(cluster, seed=1).failure_times(24.0)
        b = FailureModel(cluster, seed=1).failure_times(24.0)
        assert a == b
        assert all(0 < t < 24 for t in a)
        # ~24 expected failures at MTBF 1h over 24h.
        assert 10 <= len(a) <= 45


class TestZeroMemoryFormulas:
    """The published ZeRO table: per-GPU bytes for P params, N ranks."""

    @pytest.mark.parametrize(
        "strategy,expected_per_param",
        [
            ("ddp", 16.0),
            ("zero1", 4.0 + 12.0 / 64),
            ("zero2", 2.0 + 14.0 / 64),
            ("zero3", 16.0 / 64),
            ("fsdp", 16.0 / 64),
        ],
    )
    def test_per_gpu_bytes(self, strategy, expected_per_param):
        spec = get_model_spec("base-7b")
        config = ParallelConfig(strategy=strategy, dp=64)
        got = model_state_bytes_per_gpu(spec, config)
        assert got == pytest.approx(spec.params * expected_per_param)

    def test_zero_ordering(self):
        spec = get_model_spec("base-7b")
        values = [
            model_state_bytes_per_gpu(spec, ParallelConfig(strategy=s, dp=32))
            for s in ("ddp", "zero1", "zero2", "zero3")
        ]
        assert values == sorted(values, reverse=True)

    def test_tp_pp_divide_state(self):
        spec = get_model_spec("base-7b")
        base = model_state_bytes_per_gpu(spec, ParallelConfig(strategy="ddp"))
        split = model_state_bytes_per_gpu(
            spec, ParallelConfig(strategy="ddp", tp=2, pp=4)
        )
        assert split == pytest.approx(base / 8)

    def test_max_trainable_grows_with_dp(self):
        sizes = [
            max_trainable_params("zero3", dp, 80 * GIB) for dp in (1, 8, 64, 512)
        ]
        assert sizes == sorted(sizes)
        # ZeRO's headline: ~2 orders of magnitude over DDP at large N.
        assert sizes[-1] / max_trainable_params("ddp", 512, 80 * GIB) > 100


class TestStepTime:
    def test_components_positive(self):
        spec = get_model_spec("small-1b")
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8)
        breakdown = step_time(spec, ParallelConfig(strategy="zero3", dp=16), cluster)
        assert breakdown.compute > 0
        assert breakdown.dp_communication > 0
        assert breakdown.total >= breakdown.compute

    def test_zero3_more_communication_than_ddp(self):
        spec = get_model_spec("small-1b")
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8)
        ddp = step_time(spec, ParallelConfig(strategy="ddp", dp=16), cluster)
        z3 = step_time(spec, ParallelConfig(strategy="zero3", dp=16), cluster)
        assert z3.dp_communication > ddp.dp_communication

    def test_pipeline_bubble_shrinks_with_microbatches(self):
        spec = get_model_spec("base-7b")
        cluster = ClusterSpec(num_nodes=4, gpus_per_node=8)
        few = step_time(
            spec, ParallelConfig(strategy="ddp", dp=4, pp=8, micro_batches_per_step=4), cluster
        )
        many = step_time(
            spec, ParallelConfig(strategy="ddp", dp=4, pp=8, micro_batches_per_step=32), cluster
        )
        assert many.pipeline_bubble / many.compute < few.pipeline_bubble / few.compute

    def test_world_size_checked(self):
        spec = get_model_spec("tiny-125m")
        with pytest.raises(ConfigError):
            step_time(spec, ParallelConfig(dp=999), ClusterSpec(num_nodes=1))

    def test_planner_returns_feasible_sorted(self):
        spec = get_model_spec("large-13b")
        cluster = ClusterSpec(num_nodes=4, gpus_per_node=8)
        plans = plan_parallelism(spec, cluster)
        assert plans
        times = [p["step_time_s"] for p in plans]
        assert times == sorted(times)
        for plan in plans:
            assert fits(spec, plan["config"], cluster)

    def test_ddp_infeasible_for_huge_model(self):
        spec = get_model_spec("xl-70b")
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=8)
        config = ParallelConfig(strategy="ddp", dp=8)
        assert not fits(spec, config, cluster)


class TestCheckpointFormats:
    def test_file_format_roundtrip(self):
        state = make_state(seed=1)
        fmt = FileFormat()
        assert states_equal(fmt.deserialize(fmt.serialize(state)), state)

    def test_file_format_bad_magic(self):
        with pytest.raises(CheckpointError):
            FileFormat().deserialize(b"NOPE" + b"\x00" * 16)

    def test_array_format_roundtrip_and_partial_read(self):
        state = make_state(rows=100, seed=2)
        fmt = ArrayFormat(chunk_rows=32)
        store = fmt.serialize(state)
        assert states_equal(fmt.deserialize(store), state)
        chunk = fmt.read_partial(store, "layer0.weight", 0)
        assert chunk.size == 32 * 64

    def test_disaggregated_roundtrip(self):
        state = make_state(seed=3)
        fmt = DisaggregatedFormat()
        store = fmt.serialize(state, world_size=8)
        assert len(store["shards"]) == 8
        assert states_equal(fmt.deserialize(store), state)

    def test_disaggregated_missing_shard_detected(self):
        state = make_state(seed=4)
        fmt = DisaggregatedFormat()
        store = fmt.serialize(state, world_size=4)
        del store["shards"][2].entries["layer0.weight"]
        with pytest.raises(CheckpointError):
            fmt.deserialize(store)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_disaggregated_any_world_size(self, world_size):
        state = make_state(num_tensors=2, rows=13, cols=7, seed=5)
        fmt = DisaggregatedFormat()
        assert states_equal(fmt.deserialize(fmt.serialize(state, world_size)), state)


class TestResharding:
    def test_roundtrip_chain(self):
        state = make_state(seed=6)
        current = shard_state(state, 4)
        for world_size in (7, 16, 1, 3):
            current = reshard(current, world_size)
        assert states_equal(consolidate(current), state)

    def test_reshard_changes_world_size(self):
        state = make_state(seed=7)
        sharded = shard_state(state, 4)
        resharded = reshard(sharded, 6)
        assert resharded.world_size == 6
        assert states_equal(consolidate(resharded), state)

    def test_consolidate_detects_missing_shard(self):
        state = make_state(seed=8)
        sharded = shard_state(state, 4)
        sharded.shards.pop()
        with pytest.raises(CheckpointError):
            consolidate(sharded)

    def test_consolidate_detects_corrupt_slice(self):
        state = make_state(seed=9)
        sharded = shard_state(state, 2)
        name = "layer0.weight"
        start, stop, values = sharded.shards[0].slices[name]
        sharded.shards[0].slices[name] = (start, stop - 1, values)
        with pytest.raises(CheckpointError):
            consolidate(sharded)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_reshard_property(self, a, b):
        state = make_state(num_tensors=2, rows=9, cols=5, seed=10)
        assert states_equal(consolidate(reshard(shard_state(state, a), b)), state)


class TestCheckpointEngine:
    def _advance(self, state, step):
        state["layer0.weight"][0, step % 10] += 1.0

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "quantized"])
    def test_exact_restore(self, mode):
        engine = CheckpointEngine(mode=mode)
        state = make_state(seed=11)
        for step in (1, 2, 3):
            self._advance(state, step)
            engine.save(step, state)
        loaded_step, loaded = engine.load_latest()
        assert loaded_step == 3
        assert states_equal(loaded, state)

    def test_quantized_restore_approximate(self):
        engine = CheckpointEngine(mode="quantized")
        state = make_state(seed=12)
        engine.save(1, state)
        _, loaded = engine.load_latest()
        for name in state:
            scale = np.abs(state[name]).max()
            assert np.max(np.abs(loaded[name] - state[name])) <= scale / 100

    def test_differential_writes_less(self):
        state = make_state(seed=13)
        full = CheckpointEngine(mode="sync")
        diff = CheckpointEngine(mode="differential")
        for step in (1, 2, 3):
            self._advance(state, step)
            full.save(step, state)
            diff.save(step, state)
        assert diff.stats.total_bytes < full.stats.total_bytes

    def test_differential_loads_intermediate_step(self):
        engine = CheckpointEngine(mode="differential")
        state = make_state(seed=14)
        snapshots = {}
        for step in (1, 2, 3):
            self._advance(state, step)
            engine.save(step, state)
            snapshots[step] = {k: v.copy() for k, v in state.items()}
        for step in (1, 2, 3):
            _, loaded = engine.load_step(step)
            assert states_equal(loaded, snapshots[step])

    def test_stall_ordering(self):
        """sync stalls most; async/pipelined stall least."""
        state = make_state(rows=2048, seed=15)
        stalls = {}
        for mode in ("sync", "async", "pipelined"):
            engine = CheckpointEngine(mode=mode)
            engine.save(1, state)
            stalls[mode] = engine.stats.total_stall_s
        assert stalls["sync"] > stalls["async"] >= stalls["pipelined"]

    def test_load_without_save_raises(self):
        with pytest.raises(CheckpointError):
            CheckpointEngine().load_latest()

    def test_unknown_mode_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointEngine(mode="psychic")


class TestFrequency:
    def test_young_daly_formula(self):
        assert young_daly_interval(10.0, 7200.0) == pytest.approx((2 * 10 * 7200) ** 0.5)

    def test_optimum_beats_extremes(self):
        optimal = young_daly_interval(10.0, 3600.0)
        best = expected_overhead_fraction(optimal, 10.0, 3600.0)
        assert best < expected_overhead_fraction(optimal / 10, 10.0, 3600.0)
        assert best < expected_overhead_fraction(optimal * 10, 10.0, 3600.0)

    def test_plan_rounds_to_steps(self):
        plan = plan_frequency(step_time_s=2.0, checkpoint_cost_s=5.0, mtbf_s=3600.0)
        assert plan.steps_between_checkpoints >= 1
        assert plan.interval_s == pytest.approx(plan.steps_between_checkpoints * 2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            young_daly_interval(0, 100)
        with pytest.raises(ConfigError):
            expected_overhead_fraction(0, 1, 1)


class TestTrainingRun:
    def test_failure_free_run(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=8, mtbf_hours=10_000)
        run = TrainingRun(
            get_model_spec("tiny-125m"),
            ParallelConfig(strategy="zero2", dp=8),
            cluster,
            checkpoint_every_steps=50,
            seed=1,
        )
        result = run.run(200)
        assert result.steps_completed == 200
        assert result.restarts == 0
        assert result.goodput > 0.95

    def test_failures_cost_goodput(self):
        flaky = ClusterSpec(num_nodes=1, gpus_per_node=8, mtbf_hours=0.003)
        run = TrainingRun(
            get_model_spec("tiny-125m"),
            ParallelConfig(strategy="zero2", dp=8),
            flaky,
            checkpoint_every_steps=50,
            restart_cost_s=30.0,
            seed=2,
        )
        result = run.run(200)
        assert result.restarts > 0
        assert result.goodput < 0.95
        assert result.steps_completed == 200  # still finishes via recovery

    def test_loss_curve_monotone_in_tokens(self):
        assert loss_at_tokens(1e9) < loss_at_tokens(1e6)

    def test_loss_curve_quality_scaling(self):
        assert loss_at_tokens(1e8, quality=1.0) < loss_at_tokens(1e8, quality=0.5)

    def test_validation(self):
        cluster = ClusterSpec()
        run = TrainingRun(
            get_model_spec("tiny-125m"), ParallelConfig(dp=1), cluster
        )
        with pytest.raises(ConfigError):
            run.run(0)
