"""Web substrate.

CAAI probes Web servers, so the reproduction needs a model of the Web-facing
behaviour that matters to a probe: HTTP pipelining limits, page sizes and site structure, the page-searching crawler the paper
runs on PlanetLab, and a synthetic population of servers whose properties
follow the distributions the paper reports (Tables II and IV, Figs. 4, 6, 7,
10 and 11).
"""

from repro.web.content import SiteGenerator, WebPage, WebSite
from repro.web.crawler import CrawlResult, PageSearchTool
from repro.web.http import HttpResponse
from repro.web.population import PopulationConfig, ServerPopulation, ServerRecord
from repro.web.server import ServerProfile, WebServer

__all__ = [
    "CrawlResult",
    "HttpResponse",
    "PageSearchTool",
    "PopulationConfig",
    "ServerPopulation",
    "ServerProfile",
    "ServerRecord",
    "SiteGenerator",
    "WebPage",
    "WebServer",
    "WebSite",
]
