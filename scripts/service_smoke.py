"""CI smoke for the distributed sweep fabric (docs/service.md).

Brings the whole stack up the way an operator would — real
subprocesses, real TCP — and checks the determinism contract:

1. start ``repro serve`` on a free port with a scratch broker/cache;
2. start two ``repro worker`` processes pointed at the HTTP endpoint;
3. submit one fig7a cell over HTTP and await the run (long-poll) to completion;
4. assert the fetched ``CaseResult`` is byte-identical to the same
   cell run in-process via ``run_case``;
5. exercise ``repro cache`` stats/prune against the shared namespace.

Exit 0 on success; any failure propagates loudly.  Usage::

    python scripts/service_smoke.py [--scale 0.05] [--seed 1]
"""

import argparse
import json
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import registry
from repro.service import ServiceClient


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_healthy(client: ServiceClient, proc, timeout: float = 30.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"repro serve exited early (rc={proc.returncode})")
        try:
            client.experiments()
            return
        except Exception:
            time.sleep(0.2)
    raise RuntimeError("repro serve did not become healthy in time")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    repro = [sys.executable, "-m", "repro.cli"]
    procs = []
    with tempfile.TemporaryDirectory() as d:
        broker_dir = str(Path(d) / "broker")
        cache_dir = str(Path(d) / "cache")
        port = free_port()
        url = f"http://127.0.0.1:{port}"
        try:
            server = subprocess.Popen(
                repro + ["serve", "--broker", broker_dir, "--cache-dir",
                         cache_dir, "--port", str(port)],
            )
            procs.append(server)
            client = ServiceClient(url)
            wait_healthy(client, server)

            for i in range(2):
                procs.append(subprocess.Popen(
                    repro + ["worker", "--broker", url, "--id", f"smoke-w{i}",
                             "--max-cells", "1", "--idle-exit", "60"],
                ))

            sub = client.submit("fig7a", schemes=["CCFIT"],
                                time_scale=args.scale, seed=args.seed)
            print(f"submitted run {sub['run']}: {sub['cells']} cell(s)")
            status = client.wait(sub["run"], timeout=600)
            print(f"run finished: {status['counts']}")
            assert status["done"], status

            manifest = client.manifest(sub["run"])
            print(json.dumps(manifest, indent=2))
            assert manifest["ok"] == len(sub["keys"]), "cells failed"
            assert manifest["jobs"][0]["worker"].startswith("smoke-w"), \
                "completion not attributed to a smoke worker"

            # the determinism contract: HTTP-fetched result vs in-process
            (job,) = registry.get("fig7a").jobs(
                schemes=("CCFIT",), time_scale=args.scale, seed=args.seed)
            fetched = client.result(job.key())["result"]
            direct = job.run().to_dict()
            a = json.dumps(fetched, sort_keys=True)
            b = json.dumps(direct, sort_keys=True)
            assert a == b, "service result diverged from in-process run_case"
            print(f"byte-identical over HTTP ({len(a)} bytes)")

            metrics = client.metrics()
            assert "repro_service_cells" in metrics
            print("metrics endpoint ok")
        finally:
            for p in procs:
                p.terminate()
            for p in procs:
                try:
                    p.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    p.kill()

        # cache hygiene against the namespace the workers filled
        out = subprocess.run(
            repro + ["cache", "--dir", cache_dir, "--json"],
            check=True, capture_output=True, text=True,
        ).stdout
        stats = json.loads(out)
        print(f"cache: {stats['entries']} entries, {stats['bytes']} bytes")
        assert stats["entries"] >= 1, "worker result never reached the shared cache"
        subprocess.run(
            repro + ["cache", "--dir", cache_dir, "--prune", "--older-than", "0s"],
            check=True,
        )
        out = subprocess.run(
            repro + ["cache", "--dir", cache_dir, "--json"],
            check=True, capture_output=True, text=True,
        ).stdout
        assert json.loads(out)["entries"] == 0, "prune left entries behind"
        print("cache prune ok")

    print("service smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
