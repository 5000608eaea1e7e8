"""Figures 2 and 6: scheduling-granularity and policy illustrations.

Figure 2 contrasts request-level auto-scaling (waiting models' TTFT
absorbs whole foreign requests) with token-level auto-scaling on a
shared GPU pool: we run the same 3-model scenario through
ServerlessLLM and Aegaeon and compare per-model TTFTs.

Figure 6 contrasts unified prefill-first and decoding-first scheduling
with disaggregated scheduling.  The unified policies are scripted here
exactly as in the figure (they are not part of any serving system):
prefill-first stalls decoding during arrival bursts (TBT violations),
decoding-first delays queued prompts (TTFT violations); disaggregation
avoids both.
"""

from dataclasses import replace

from _common import run_system
from repro.analysis import format_table
from repro.baselines import ServerlessLLM
from repro.core import AegaeonConfig, AegaeonServer, DEFAULT_SLO, SloSpec
from repro.hardware import Cluster, H800
from repro.models import LatencyModel, get_model, switch_time
from repro.sim import Environment
from repro.workload import Trace, TraceRequest


def _three_model_trace():
    """Requests for models A, B, C arriving back to back (Figure 2)."""
    base = get_model("Qwen-7B")
    models = tuple(replace(base, name=f"model-{tag}") for tag in "ABC")
    requests = []
    for index, spec in enumerate(models):
        requests.append(
            TraceRequest(
                request_id=index,
                model=spec.name,
                arrival=0.5 + 0.5 * index,
                input_tokens=512,
                output_tokens=256,
            )
        )
    return Trace(requests=tuple(requests), models=models, horizon=10.0)


def test_fig02_request_vs_token_level(benchmark):
    trace = _three_model_trace()

    def run():
        # One shared GPU for all three models, both systems.
        env = Environment()
        aegaeon = AegaeonServer(
            env,
            Cluster.homogeneous(env, H800, 1, 2),
            AegaeonConfig(prefill_instances=1, decode_instances=1),
        )
        result_aegaeon = aegaeon.serve(trace)
        env = Environment()
        sllm = ServerlessLLM(env, Cluster.homogeneous(env, H800, 1, 1))
        result_sllm = sllm.serve(trace)
        return result_aegaeon, result_sllm

    result_aegaeon, result_sllm = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, result in [("token-level (Aegaeon)", result_aegaeon), ("request-level (SLLM)", result_sllm)]:
        ttfts = result.ttfts()
        rows.append([label, *(f"{t:.2f} s" for t in ttfts)])
    print()
    print(
        format_table(
            ["granularity", "TTFT(A)", "TTFT(B)", "TTFT(C)"],
            rows,
            title="Figure 2: one GPU shared by 3 models",
        )
    )
    # Request-level: C waits for A and B to fully finish (its TTFT
    # absorbs two whole foreign requests); token-level serves
    # everyone's first token promptly.
    assert result_sllm.ttfts().max() > 3 * result_aegaeon.ttfts().max()


def _figure6_trace():
    """Figure 6's scenario shape, sustained: bursty prompts, 3 models.

    Two-request bursts arrive every second, cycling through three
    models, with long prompts (3072 tokens) and long outputs (300
    tokens) — prefill pressure and decode pressure coexist, which is
    what separates the three policies.
    """
    base = get_model("Qwen-7B")
    models = tuple(replace(base, name=f"model-{tag}") for tag in "ABC")
    requests = []
    request_id = 0
    for burst in range(8):
        spec = models[burst % 3]
        for offset in range(2):
            requests.append(
                TraceRequest(
                    request_id=request_id,
                    model=spec.name,
                    arrival=burst * 1.0 + 0.05 * offset,
                    input_tokens=3072,
                    output_tokens=300,
                )
            )
            request_id += 1
    return Trace(requests=tuple(requests), models=models, horizon=10.0)


def test_fig06_unified_vs_disaggregated(benchmark):
    """Run the three Figure 6 policies as real systems on one trace."""
    from repro.core import DECODE_FIRST, PREFILL_FIRST, SystemConfig, UnifiedServer

    trace = _figure6_trace()
    slo = SloSpec(ttft=2.0, tbt=0.1)

    def run():
        results = {}
        for policy in (PREFILL_FIRST, DECODE_FIRST):
            env = Environment()
            server = UnifiedServer(
                env, Cluster.homogeneous(env, H800, 1, 2), SystemConfig(slo=slo),
                policy=policy,
            )
            results[policy] = server.serve(trace)
        env = Environment()
        aegaeon = AegaeonServer(
            env,
            Cluster.homogeneous(env, H800, 1, 2),
            AegaeonConfig(prefill_instances=1, decode_instances=1, slo=slo),
        )
        results["disaggregated"] = aegaeon.serve(trace)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (label, f"{result.slo_attainment:.1%}", f"{result.ttfts().max():.2f} s")
        for label, result in results.items()
    ]
    print()
    print(
        format_table(
            ["policy", "SLO attainment", "worst TTFT"],
            rows,
            title="Figure 6: 16 requests / 3 models / 2 GPUs (TTFT 2s, TBT 100ms)",
        )
    )
    from repro.core import DECODE_FIRST as DF, PREFILL_FIRST as PF

    disaggregated = results["disaggregated"]
    # The Figure 6 ordering: disaggregated > prefill-first > decode-first.
    assert disaggregated.slo_attainment > results[PF].slo_attainment
    assert results[PF].slo_attainment > results[DF].slo_attainment
    # Decode-first specifically blows TTFTs (Figure 6(b)).
    assert results[DF].ttfts().max() > 3 * disaggregated.ttfts().max()
