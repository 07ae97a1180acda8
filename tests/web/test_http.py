"""Tests for the HTTP model."""

import pytest

from repro.web.http import DEFAULT_PIPELINE_DEPTH, HttpResponse


class TestHttpResponse:
    def test_ok_response(self):
        response = HttpResponse(status=200, body_size=1000, path="/x")
        assert response.total_size() > 1000

    def test_redirect_needs_target(self):
        with pytest.raises(ValueError):
            HttpResponse(status=301, body_size=0, path="/x")
        redirect = HttpResponse(status=301, body_size=0, path="/x", redirect_to="/y")
        assert redirect.redirect_to == "/y"

    def test_negative_body_rejected(self):
        with pytest.raises(ValueError):
            HttpResponse(status=200, body_size=-1, path="/x")


class TestPipeline:
    def test_default_depth_matches_paper(self):
        # CAAI repeats its request 12 times by default (Section IV-E).
        assert DEFAULT_PIPELINE_DEPTH == 12
