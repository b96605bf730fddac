"""CI smoke for the distributed sweep fabric (docs/service.md).

Brings the whole stack up the way an operator would — real
subprocesses, real TCP — and checks the determinism contract:

1. start ``repro serve`` on a free port with a scratch broker/cache;
2. start two ``repro worker`` processes pointed at the HTTP endpoint;
3. submit one fig7a cell over HTTP and await the run (long-poll) to completion;
4. assert the fetched ``CaseResult`` is byte-identical to the same
   cell run in-process via ``run_case``; submit it again and find the
   run done at once, every cell a cache hit;
5. send ``/broker/complete`` a key that is not a key: a 400, and not
   one file under the temp directory changes;
6. send a negative ``Content-Length``, two disagreeing ones and a
   chunked POST over a raw socket: each is refused (400, 400, 501)
   and hung up on, and a ``GET /runs`` on a new connection is still
   answered;
7. submit one fig8a cell off the default on routing, buffer model and
   faults, and fetch it by the key the same cell has in process: a key
   that differs across processes on an axis is a 404 here;
8. exercise ``repro cache`` stats/prune against the shared namespace.

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
import urllib.error
import urllib.request
from pathlib import Path

from repro.experiments import registry
from repro.service import ServiceClient

#: a leaf uplink of Config #3 down for 300 us mid-burst (docs/faults.md)
FLAP = "down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def raw_status(port: int, request: bytes) -> int:
    """Send ``request`` on a connection of its own; the reply's status,
    read once the server has hung up."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return int(reply.split()[1])


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

            # the finished cell again: a cache hit, done without a worker
            again = client.submit("fig7a", schemes=["CCFIT"],
                                  time_scale=args.scale, seed=args.seed)
            assert client.run(again["run"])["done"], "a cached cell waited"
            manifest = client.manifest(again["run"])
            assert manifest["cache_hits"] == manifest["cells"] == 1, manifest
            assert manifest["jobs"][0]["worker"] == "cache", manifest
            print("re-submitted cell: done at once, from the cache")

            # a worker-protocol key is joined into paths: a non-key is refused
            files = {p: p.read_bytes() for p in Path(d).rglob("*") if p.is_file()}
            bad = urllib.request.Request(
                url + "/broker/complete", method="POST",
                data=json.dumps({"key": "../victim", "worker": "smoke",
                                 "result": {}}).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            try:
                urllib.request.urlopen(bad, timeout=30).close()
                raise AssertionError("a key that is not a key was accepted")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400, exc.code
            assert {p: p.read_bytes() for p in Path(d).rglob("*") if p.is_file()} == files, \
                "a refused request changed files"
            print("malformed key: 400, nothing written")

            # request framing the server cannot trust: refused, hung up on
            body = b'{"experiment": "fig7a"}'
            for what, head, want in [
                ("negative Content-Length", b"Content-Length: -1\r\n\r\n" + body, 400),
                ("duplicate Content-Length", b"Content-Length: 23\r\nContent-Length: 5\r\n\r\n"
                 + body, 400),
                ("chunked POST", b"Transfer-Encoding: chunked\r\n\r\n17\r\n" + body
                 + b"\r\n0\r\n\r\n", 501),
            ]:
                status = raw_status(port, b"POST /experiments HTTP/1.1\r\nHost: smoke\r\n" + head)
                assert status == want, f"{what}: HTTP {status}, not {want}"
            status = raw_status(port, b"GET /runs HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n")
            assert status == 200, f"GET /runs after them: HTTP {status}"
            print("malformed framing: 400, 400, 501; the next connection answered")

            # one cell off the default on three axes, keyed in process
            sub = client.submit("fig8a", schemes=["CCFIT"], time_scale=args.scale,
                                seed=args.seed, routings=["adaptive"], buffer_model="shared",
                                faults=FLAP)
            assert client.wait(sub["run"], timeout=600)["done"]
            (job,) = registry.get("fig8a").jobs(
                schemes=("CCFIT",), time_scale=args.scale, seed=args.seed,
                routing="adaptive", buffer_model="shared", faults=FLAP)
            assert sub["keys"] == [job.key()], (sub["keys"], job.key())
            fetched = client.result(job.key())["result"]
            assert json.dumps(fetched, sort_keys=True) == \
                json.dumps(job.run().to_dict(), sort_keys=True), "off-default cell diverged"
            print(f"{job.label()}: fetched by its in-process key, byte-identical")

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
