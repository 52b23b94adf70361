"""Start the coloring service with the span recorder's wrappers ready.

Usage: ``python perfbench/serve_launcher.py --port 0`` (with ``PYTHONPATH``
pointing at the checkout's ``src``).  It serves exactly what ``python -m
repro serve`` serves with the same defaults, plus one op for the load
generator: ``{"op": "trace", "enabled": true}`` binds the wrappers and
``{"op": "trace", "enabled": false}`` unbinds them and answers with the
span summary.  The wrappers are prepared before the service takes
requests, so functions the service stored at construction are covered.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

import layers
from spans import Tracer


def main() -> int:
    from repro.serve import executor
    from repro.serve.server import ColoringService, ServeConfig

    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    tracer = Tracer()

    class TracedService(ColoringService):
        async def _op_trace(self, request):
            if request.get("enabled"):
                tracer.install()
                return {"tracing": True}
            tracer.uninstall()
            tracer.save(os.path.join(".perfbench", "spans", "serve.npz"))
            return {"tracing": False, "summary": tracer.summary()}

        _OPS = {**ColoringService._OPS, "trace": _op_trace}

    async def serve() -> None:
        service = TracedService(ServeConfig(port=args.port))
        tracer.prepare(
            extra_homes=[executor._RUNNERS, service.batcher],
            on_result=layers.simulator_counters(tracer),
        )
        host, port = await service.start()
        print(f"repro-serve listening on {host}:{port}", flush=True)
        await service.serve_forever()

    os.makedirs(os.path.join(".perfbench", "spans"), exist_ok=True)
    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
