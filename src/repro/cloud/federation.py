"""The cloud federation: sites, catalogs, network and provisioning."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.instances import InstanceType, find_instance, instance_catalog
from repro.cloud.network import LinkSpec, NetworkModel
from repro.cloud.pricing import PricingModel
from repro.cloud.provider import CloudProvider, Region
from repro.cloud.vm import Cluster
from repro.common.errors import CloudError


@dataclass(frozen=True)
class CloudSite:
    """One member of the federation: a region of a provider.

    In the paper's scenario, "cloud A" hosts the Hive engine with the
    Patient table and "cloud B" hosts PostgreSQL with GeneralInfo.
    """

    name: str
    region: Region

    @property
    def provider(self) -> CloudProvider:
        return self.region.provider


#: Distinct (site, instance type, node count) clusters one federation
#: memoizes; a QEP space's node-count grid is far smaller.
_PROVISIONED_CAPACITY = 1024


class CloudFederation:
    """A set of interconnected cloud sites with shared pricing/networking."""

    def __init__(self, pricing: PricingModel | None = None,
                 network: NetworkModel | None = None):
        self._sites: dict[str, CloudSite] = {}
        self.pricing = pricing or PricingModel()
        self.network = network or NetworkModel()
        # Provisioning is pure and clusters are frozen: QEP enumeration
        # asks for the same (site, instance, nodes) triples on every call.
        self._clusters: dict[tuple[str, str, int], Cluster] = {}

    # Site management ----------------------------------------------------

    def add_site(self, name: str, provider: CloudProvider,
                 region_name: str = "default", position_ms: float = 0.0) -> CloudSite:
        key = name.lower()
        if key in self._sites:
            raise CloudError(f"site {name!r} already in federation")
        site = CloudSite(name, Region(provider, region_name, position_ms))
        self._sites[key] = site
        return site

    def site(self, name: str) -> CloudSite:
        try:
            return self._sites[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._sites)) or "<none>"
            raise CloudError(f"unknown site {name!r}; federation has: {known}") from None

    def sites(self) -> list[CloudSite]:
        return list(self._sites.values())

    # Provisioning ---------------------------------------------------------

    def provision(self, site_name: str, instance_name: str, node_count: int) -> Cluster:
        """Provision a homogeneous cluster at a site (memoized)."""
        key = (site_name, instance_name, node_count)
        cluster = self._clusters.get(key)
        if cluster is None:
            site = self.site(site_name)
            instance = find_instance(site.provider, instance_name)
            cluster = Cluster(site.name, instance, node_count)
            if len(self._clusters) < _PROVISIONED_CAPACITY:
                self._clusters[key] = cluster
        return cluster

    def catalog(self, site_name: str) -> tuple[InstanceType, ...]:
        return instance_catalog(self.site(site_name).provider)

    # Networking -----------------------------------------------------------

    def link(self, from_site: str, to_site: str) -> LinkSpec:
        a = self.site(from_site)
        b = self.site(to_site)
        return self.network.link(a.name, b.name, a.region, b.region)

    def transfer_time(self, payload_bytes: float, from_site: str, to_site: str) -> float:
        return self.link(from_site, to_site).transfer_time(payload_bytes)

    def crosses_provider(self, from_site: str, to_site: str) -> bool:
        return self.site(from_site).provider != self.site(to_site).provider


def paper_federation() -> CloudFederation:
    """The two-site federation of the paper's Example 2.1.

    Cloud A (Amazon) runs Hive; cloud B (Microsoft) runs PostgreSQL.  A
    Google site is included for the three-provider architecture of
    Figure 1 but is unused by the core experiments.
    """
    federation = CloudFederation()
    federation.add_site("cloud-a", CloudProvider.AMAZON, "eu-west-1", position_ms=0.0)
    federation.add_site("cloud-b", CloudProvider.MICROSOFT, "west-europe", position_ms=8.0)
    federation.add_site("cloud-c", CloudProvider.GOOGLE, "europe-west1", position_ms=5.0)
    return federation
