"""Tests for synthetic site content and the page-searching crawler."""

import numpy as np
import pytest

from repro.web.content import SiteGenerator, WebPage, WebSite
from repro.web.crawler import PageSearchTool


def small_site(sizes, hidden=None, redirect=False):
    """Build a hand-crafted site: /index.html links to /p0../pN."""
    hidden = hidden or set()
    pages = {}
    linked = []
    for i, size in enumerate(sizes):
        path = f"/p{i}.html"
        pages[path] = WebPage(path=path, size=size)
        if i not in hidden:
            linked.append(path)
    if redirect:
        pages["/home.html"] = WebPage(path="/home.html", size=5000, links=tuple(linked))
        pages["/index.html"] = WebPage(path="/index.html", size=300, redirect_to="/home.html")
    else:
        pages["/index.html"] = WebPage(path="/index.html", size=5000, links=tuple(linked))
    return WebSite(pages=pages)


class TestWebSite:
    def test_default_page_must_exist(self):
        with pytest.raises(ValueError):
            WebSite(pages={"/a.html": WebPage(path="/a.html", size=10)})

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            WebPage(path="/x", size=-1)


class TestCrawler:
    def test_finds_longest_linked_page(self):
        site = small_site([100, 900_000, 200])
        result = PageSearchTool().search(site)
        assert result.best_path == "/p1.html"
        assert result.best_size == 900_000

    def test_cannot_find_unlinked_page(self):
        site = small_site([100, 900_000, 200], hidden={1})
        result = PageSearchTool().search(site)
        assert result.best_size < 900_000

    def test_follows_redirects(self):
        site = small_site([100, 900_000], redirect=True)
        result = PageSearchTool().search(site)
        assert result.best_size == 900_000
        assert result.default_size == 5000  # size behind the redirect

    def test_budget_limits_exploration(self):
        sizes = list(range(1000, 1000 + 300))
        site = small_site(sizes)
        result = PageSearchTool(page_budget=10).search(site)
        assert result.pages_visited <= 10
        assert result.hit_budget

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            PageSearchTool(page_budget=0).search(small_site([100]))


class TestSiteGenerator:
    def test_generated_sites_are_valid(self):
        rng = np.random.default_rng(3)
        generator = SiteGenerator()
        for index in range(20):
            site = generator.generate(rng, site_index=index)
            assert site.default_path in site.pages
            assert len(site) >= 2

    def test_page_size_distribution_matches_fig7_shape(self):
        rng = np.random.default_rng(5)
        generator = SiteGenerator()
        crawler = PageSearchTool()
        defaults, found = [], []
        for index in range(400):
            site = generator.generate(rng, site_index=index)
            result = crawler.search(site)
            defaults.append(result.default_size)
            found.append(result.best_size)
        default_share = np.mean(np.array(defaults) > 100_000)
        found_share = np.mean(np.array(found) > 100_000)
        # Fig. 7: about 12 % of default pages and about 48 % of longest-found
        # pages exceed 100 kB.
        assert 0.05 <= default_share <= 0.25
        assert 0.35 <= found_share <= 0.62
        assert found_share > default_share
