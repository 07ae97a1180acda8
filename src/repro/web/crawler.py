"""The Web-page searching tool (Section IV-E of the paper).

Before probing a server, CAAI looks for a long Web page: the paper's tool
crawls the site with httrack for five minutes (following redirects), queries
page sizes from response headers without downloading the bodies, and keeps the
longest page it found. This module reproduces that behaviour against the
synthetic :class:`~repro.web.content.WebSite` model: a breadth-first crawl
from the default page with a page budget standing in for the time budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.web.content import WebPage, WebSite


@dataclass(frozen=True)
class CrawlResult:
    """Outcome of searching one site for a long page."""

    best_path: str
    best_size: int
    pages_visited: int
    default_size: int
    hit_budget: bool


@dataclass
class PageSearchTool:
    """Breadth-first page search with a crawl budget.

    ``page_budget`` models the paper's five-minute httrack budget: sites
    larger than the budget are only partially explored, so the longest page is
    not always found -- matching the gap between the true longest page and the
    "longest found" distribution of Fig. 7.
    """

    page_budget: int = 120
    max_depth: int = 6
    follow_redirects: bool = True

    def search(self, site: WebSite) -> CrawlResult:
        """Crawl ``site`` and return the longest page discovered."""
        if self.page_budget < 1:
            raise ValueError("page budget must be at least 1")
        start = site.default_page
        default_size = self._resolve_default_size(site, start)
        best: WebPage = start
        visited: set[str] = set()
        queue: deque[tuple[str, int]] = deque([(start.path, 0)])
        hit_budget = False
        while queue:
            if len(visited) >= self.page_budget:
                hit_budget = True
                break
            path, depth = queue.popleft()
            if path in visited:
                continue
            page = site.page(path)
            if page is None:
                continue
            visited.add(path)
            if page.redirect_to and self.follow_redirects:
                queue.append((page.redirect_to, depth + 1))
                continue
            if page.size > best.size:
                best = page
            if depth >= self.max_depth:
                continue
            for link in page.links:
                if link not in visited:
                    queue.append((link, depth + 1))
        return CrawlResult(best_path=best.path, best_size=best.size,
                           pages_visited=len(visited), default_size=default_size,
                           hit_budget=hit_budget)

    def _resolve_default_size(self, site: WebSite, start: WebPage) -> int:
        """Size of the default page, following one redirect hop if present."""
        if start.redirect_to and self.follow_redirects:
            target = site.page(start.redirect_to)
            if target is not None:
                return target.size
        return start.size
