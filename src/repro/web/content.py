"""Synthetic Web-site content.

The amount of data a CAAI probe can pull from a server is bounded by the size
of the page it requests times the number of pipelined requests the server
accepts. The paper measures both distributions (Figs. 6 and 7) and runs a
crawler to find the longest page of each site. This module generates synthetic
sites -- a default page, a link graph, and a size for every page -- whose
default-page and longest-page size distributions match Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WebPage:
    """A page on a synthetic site."""

    path: str
    size: int
    links: tuple[str, ...] = ()
    redirect_to: str | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("page size must be non-negative")


@dataclass
class WebSite:
    """A synthetic Web site: pages addressed by path plus a default page."""

    pages: dict[str, WebPage]
    default_path: str = "/index.html"

    def __post_init__(self) -> None:
        if self.default_path not in self.pages:
            raise ValueError("the default page must exist")

    def page(self, path: str) -> WebPage | None:
        return self.pages.get(path)

    @property
    def default_page(self) -> WebPage:
        return self.pages[self.default_path]

    def __len__(self) -> int:
        return len(self.pages)


@dataclass
class SiteGenerator:
    """Generates synthetic sites matching the paper's page-size distributions.

    Shape targets from Fig. 7: only about 12 % of *default* pages exceed
    100 kB, while after the page search about 48 % of servers expose a page
    above 100 kB. Sites therefore get a log-normal default page plus a number
    of inner pages with a heavier-tailed size distribution; a fraction of
    sites keep their large pages unlinked from the default page (the crawler
    cannot find them), and a small fraction answer the default path with a
    redirect.
    """

    #: Median default page size (bytes) and log-normal sigma. Calibrated so
    #: that roughly 12 % of default pages exceed 100 kB (Fig. 7).
    default_page_median: float = 22_000.0
    default_page_sigma: float = 1.29
    #: Median and sigma of the *largest* page hosted by a site. Calibrated so
    #: that, after crawling, roughly half of the servers expose a page above
    #: 100 kB (the "longest Web pages found by CAAI" curve of Fig. 7).
    peak_page_median: float = 100_000.0
    peak_page_sigma: float = 1.5
    #: Number of inner pages per site (geometric-ish).
    mean_inner_pages: float = 25.0
    #: Probability that a site's largest pages are not linked from the index.
    unlinked_large_pages_probability: float = 0.22
    #: Probability that the default path redirects to the real index.
    redirect_probability: float = 0.08

    def generate(self, rng: np.random.Generator, site_index: int = 0) -> WebSite:
        """Generate one synthetic site."""
        n_inner = max(1, int(rng.geometric(1.0 / self.mean_inner_pages)))
        n_inner = min(n_inner, 400)
        peak_size = float(np.clip(rng.lognormal(np.log(self.peak_page_median),
                                                self.peak_page_sigma),
                                  1_000, 80_000_000))
        # Inner pages are fractions of the site's largest page; one page gets
        # the full peak size so every site has a well-defined longest page.
        fractions = rng.beta(0.8, 3.0, size=n_inner)
        inner_sizes = np.maximum((fractions * peak_size).astype(int), 200)
        inner_sizes[int(rng.integers(0, n_inner))] = int(peak_size)

        pages: dict[str, WebPage] = {}
        inner_paths = [f"/page{site_index}_{i}.html" for i in range(n_inner)]
        hide_large = rng.random() < self.unlinked_large_pages_probability
        largest_indices = set(np.argsort(inner_sizes)[-max(1, n_inner // 5):].tolist())

        linked: list[str] = []
        for i, (path, size) in enumerate(zip(inner_paths, inner_sizes)):
            pages[path] = WebPage(path=path, size=int(size))
            if not (hide_large and i in largest_indices):
                linked.append(path)

        default_size = int(np.clip(rng.lognormal(np.log(self.default_page_median),
                                                 self.default_page_sigma),
                                   200, 20_000_000))
        default_path = "/index.html"
        if rng.random() < self.redirect_probability:
            real_index = "/home.html"
            pages[real_index] = WebPage(path=real_index, size=default_size,
                                        links=tuple(linked))
            pages[default_path] = WebPage(path=default_path, size=300,
                                          redirect_to=real_index)
        else:
            pages[default_path] = WebPage(path=default_path, size=default_size,
                                          links=tuple(linked))
        return WebSite(pages=pages, default_path=default_path)
