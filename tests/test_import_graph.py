"""What each entry point loads: numpy only where traces are generated.

Every case runs in a fresh interpreter, so nothing an earlier test (or
the suite's conftest) imported can hide a module-level ``import numpy``.
The serving path must also work when numpy cannot be imported at all:
the last cases block it with ``sys.modules["numpy"] = None`` first.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="numpy is not installed",
)


def fresh(script: str) -> dict:
    """Run *script* in a new interpreter; its last line of output is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro.proxy.cluster",
        "repro.proxy.server",
        "repro.sharing.summary_sharing",
        "repro.summaries",
        "repro.traces",
        "repro.benchmarkkit.wisconsin",
    ],
)
def test_importing_loads_no_numpy(module):
    loaded = fresh(
        f"""
        import json, sys
        import {module}
        print(json.dumps({{"numpy": sys.modules.get("numpy") is not None}}))
        """
    )
    assert loaded == {"numpy": False}


def test_errors_loads_no_other_repro_module():
    loaded = fresh(
        """
        import json, sys
        import repro.errors
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
        """
    )
    assert loaded == ["repro", "repro.errors"]


def test_binary_traces_load_no_cache_or_summary_stack():
    loaded = fresh(
        """
        import json, sys
        import repro.traces.binary
        print(json.dumps(sorted(
            m for m in sys.modules
            if m.split(".")[:2] in (["repro", "summaries"], ["repro", "cache"])
            or m == "repro.core.bitarray"
        )))
        """
    )
    assert loaded == []


@needs_numpy
@pytest.mark.parametrize(
    "imports, call, expected",
    [
        (
            "from repro.traces import SyntheticTraceConfig, generate_trace",
            "len(generate_trace(SyntheticTraceConfig(num_requests=50)))",
            50,
        ),
        (
            "from repro.benchmarkkit.wisconsin import WisconsinConfig, "
            "generate_client_streams",
            "len(generate_client_streams(WisconsinConfig(num_clients=3, "
            "requests_per_client=5)))",
            3,
        ),
        (
            "from repro.traces import Request, Trace, fit_zipf_alpha",
            # Frequencies 4, 2, 1 at ranks 1, 2, 3.
            "round(fit_zipf_alpha(Trace(requests=[Request(0.0, 0, u, 1) "
            "for u in 'aaaabbc']), head_fraction=1.0), 2)",
            1.23,
        ),
    ],
    ids=["generate_trace", "generate_client_streams", "fit_zipf_alpha"],
)
def test_trace_tools_load_numpy_when_called(imports, call, expected):
    ran = fresh(
        f"""
        import json, sys
        {imports}
        before = sys.modules.get("numpy") is not None
        out = {call}
        print(json.dumps([before, out, sys.modules.get("numpy") is not None]))
        """
    )
    assert ran == [False, expected, True]


def test_cli_parser_loads_no_experiment_stack():
    loaded = fresh(
        """
        import json, sys
        from repro.cli import build_parser
        build_parser().parse_args(["serve", "--proxies", "2"])
        print(json.dumps(sorted(
            m for m in ("numpy", "repro.experiments", "repro.simulation")
            if sys.modules.get(m) is not None
        )))
        """
    )
    assert loaded == []


def test_cli_parser_loads_no_lint_module():
    loaded = fresh(
        """
        import json, sys
        from repro.cli import build_parser
        build_parser()
        print(json.dumps(sorted(
            m for m in sys.modules
            if m == "repro.lint" or m.startswith("repro.lint.")
        )))
        """
    )
    assert loaded == []


def test_serve_runs_without_numpy_or_experiment_stack():
    loaded = fresh(
        """
        import contextlib, io, json, sys
        sys.modules["numpy"] = None
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["serve", "--proxies", "2", "--duration", "0.2"])
        print(json.dumps({
            "code": code,
            "proxies": out.getvalue().count(" mode=sc-icp "),
            "loaded": sorted(
                m for m in ("repro.experiments", "repro.simulation")
                if m in sys.modules
            ),
        }))
        """
    )
    assert loaded == {"code": 0, "proxies": 2, "loaded": []}


def test_sc_icp_cluster_serves_without_numpy():
    served = fresh(
        """
        import asyncio, json, sys
        sys.modules["numpy"] = None
        from repro.proxy import ClientDriver, ProxyCluster, ProxyConfig, ProxyMode
        from repro.proxy.http import synth_body
        from repro.summaries import SummaryConfig

        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=ProxyConfig(
                    summary=SummaryConfig(kind="bloom", load_factor=8),
                    expected_doc_size=1024,
                ),
            ) as cluster:
                urls = [f"http://nonp.com/d{i}" for i in range(25)]
                correct = 0
                for index in (0, 1):
                    proxy = cluster.proxies[index]
                    driver = ClientDriver(proxy.config.host, proxy.http_port)
                    for i, url in enumerate(urls):
                        body = await driver.fetch(url, size=600 + i)
                        correct += body == synth_body(url, 600 + i)
                    await driver.close()
                    await asyncio.sleep(0.05)  # let DIRUPDATEs land
                return {
                    "correct": correct,
                    "remote_hits": cluster.proxies[1].stats.remote_hits,
                }

        print(json.dumps(asyncio.run(scenario())))
        """
    )
    assert served["correct"] == 50
    assert served["remote_hits"] > 0
