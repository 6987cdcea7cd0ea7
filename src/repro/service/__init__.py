"""Mining as a service: the asyncio multi-tenant daemon.

The batch pipeline (ingest → fold → finish) turned into a long-lived
HTTP/JSONL server, one durable mining session per process id:

* :mod:`repro.service.server` — the asyncio daemon (``repro-miner
  serve``): HTTP front-end, per-tenant ingest queues with 429
  backpressure, graceful checkpointing shutdown;
* :mod:`repro.service.registry` — tenants (ingest stream + durable
  session + model snapshot) and the multi-tenant registry;
* :mod:`repro.service.router` — the declarative endpoint table;
* :mod:`repro.service.wire` — renderers/codecs shared with the CLI, so
  HTTP responses are byte-identical to batch CLI output;
* :mod:`repro.service.client` — the stdlib test/CI harness client.

See ``docs/SERVICE.md`` for the endpoint contract, backpressure and
shutdown semantics.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.client import ClientResponse, ServiceClient
    from repro.service.registry import (
        ModelSnapshot,
        ServiceError,
        Tenant,
        TenantConfig,
        TenantRegistry,
    )
    from repro.service.server import (
        Request,
        Response,
        ServiceApp,
        ServiceConfig,
        ServiceServer,
        serve,
    )

#: Re-export -> defining module.  Resolved on first access, so
#: importing a light submodule — ``mine`` renders through
#: :mod:`repro.service.wire` — does not load the daemon and asyncio.
_EXPORTS = {
    "ClientResponse": ".client",
    "ServiceClient": ".client",
    "ModelSnapshot": ".registry",
    "ServiceError": ".registry",
    "Tenant": ".registry",
    "TenantConfig": ".registry",
    "TenantRegistry": ".registry",
    "Request": ".server",
    "Response": ".server",
    "ServiceApp": ".server",
    "ServiceConfig": ".server",
    "ServiceServer": ".server",
    "serve": ".server",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
