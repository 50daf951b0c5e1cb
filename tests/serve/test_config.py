"""ServiceConfig: validation, env overlay, CLI construction."""

import argparse

import pytest

from repro.errors import ServeError
from repro.serve import ServiceConfig, TenantQuota
from repro.serve.config import _parse_tenant_spec


def make_namespace(**overrides):
    """The fields ``bingo-repro serve`` puts on its argparse namespace."""
    values = dict(
        engine="bingo",
        seed=7,
        shards=1,
        host="127.0.0.1",
        port=0,
        fuse_limit=8,
        fuse_window=0.002,
        no_warm=False,
        log_requests=False,
        max_pending=64,
        tenant=None,
    )
    values.update(overrides)
    return argparse.Namespace(**values)


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.engine == "bingo"
        assert config.shards == 1
        assert config.tenant_quotas() is None

    @pytest.mark.parametrize(
        "field",
        [
            "shards",
            "max_pending_queries",
            "fuse_limit",
            "dead_letter_limit",
            "max_body_bytes",
        ],
    )
    def test_counts_must_be_positive_integers(self, field):
        with pytest.raises(ServeError, match=field):
            ServiceConfig(**{field: 0})
        with pytest.raises(ServeError, match=field):
            ServiceConfig(**{field: True})

    def test_shards_is_the_only_scale_out_axis(self):
        assert ServiceConfig(shards=2).shards == 2
        with pytest.raises(TypeError, match="workers"):
            ServiceConfig(workers=2)

    def test_port_range_is_enforced(self):
        with pytest.raises(ServeError, match="port"):
            ServiceConfig(port=70000)
        with pytest.raises(ServeError, match="port"):
            ServiceConfig(port=-1)

    @pytest.mark.parametrize("field", ["query_timeout", "body_timeout"])
    def test_timeouts_are_positive_or_none(self, field):
        with pytest.raises(ServeError, match=field):
            ServiceConfig(**{field: 0.0})
        assert getattr(ServiceConfig(**{field: None}), field) is None

    def test_the_removed_threaded_front_end_cannot_be_selected(self):
        assert ServiceConfig().event_loop is True
        with pytest.raises(ServeError, match="threaded HTTP front-end"):
            ServiceConfig(event_loop=False)
        with pytest.raises(ServeError, match="threaded HTTP front-end"):
            ServiceConfig.from_env(environ={"BINGO_SERVE_EVENT_LOOP": "0"})

    def test_retry_after_must_be_positive(self):
        with pytest.raises(ServeError, match="retry_after"):
            ServiceConfig(retry_after_seconds=0.0)

    def test_bad_tenant_triples_are_rejected(self):
        with pytest.raises(ServeError, match="tenant spec"):
            ServiceConfig(tenants=(("acme", 1.0),))
        with pytest.raises(ServeError, match="tenant spec"):
            ServiceConfig(tenants=(("", 1.0, 4),))
        with pytest.raises(ServeError, match="tenant spec"):
            ServiceConfig(tenants=(("acme", -1.0, 4),))

    def test_replace_revalidates(self):
        config = ServiceConfig(shards=2)
        with pytest.raises(ServeError, match="fuse_limit"):
            config.replace(fuse_limit=0)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses_frozen_errors()):
            ServiceConfig().engine = "gsampler"


def dataclasses_frozen_errors():
    import dataclasses

    return dataclasses.FrozenInstanceError


class TestTenantQuotas:
    def test_triples_materialise_into_quota_mapping(self):
        config = ServiceConfig(tenants=(("acme", 2.0, 16), ("beta", 1.0, 4)))
        quotas = config.tenant_quotas()
        assert set(quotas) == {"acme", "beta"}
        assert quotas["acme"] == TenantQuota(max_pending=16, weight=2.0)
        assert quotas["beta"].max_pending == 4


class TestFromEnv:
    def test_overlay_coerces_types(self):
        config = ServiceConfig.from_env(
            environ={
                "BINGO_SERVE_SHARDS": "4",
                "BINGO_SERVE_LOG_REQUESTS": "true",
                "BINGO_SERVE_FUSE_WINDOW_SECONDS": "0.01",
                "BINGO_SERVE_HOST": "0.0.0.0",
                "UNRELATED": "ignored",
            }
        )
        assert config.shards == 4
        assert config.log_requests is True
        assert config.fuse_window_seconds == 0.01
        assert config.host == "0.0.0.0"

    def test_base_fields_win_unless_overridden(self):
        base = ServiceConfig(engine="knightking", port=8080)
        config = ServiceConfig.from_env(
            base, environ={"BINGO_SERVE_PORT": "9090"}
        )
        assert config.engine == "knightking"
        assert config.port == 9090

    def test_unknown_name_raises_instead_of_silently_defaulting(self):
        with pytest.raises(ServeError, match="BINGO_SERVE_SHRADS"):
            ServiceConfig.from_env(environ={"BINGO_SERVE_SHRADS": "4"})
        # Serving scales out only through `shards`; `workers` is not a field.
        with pytest.raises(ServeError, match="BINGO_SERVE_WORKERS"):
            ServiceConfig.from_env(environ={"BINGO_SERVE_WORKERS": "2"})

    def test_composite_fields_cannot_come_from_env(self):
        with pytest.raises(ServeError, match="BINGO_SERVE_TENANTS"):
            ServiceConfig.from_env(environ={"BINGO_SERVE_TENANTS": "a:1:2"})

    def test_bad_boolean_and_numeric_values_raise(self):
        with pytest.raises(ServeError, match="boolean"):
            ServiceConfig.from_env(environ={"BINGO_SERVE_SYNC": "maybe"})
        with pytest.raises(ServeError, match="numeric"):
            ServiceConfig.from_env(environ={"BINGO_SERVE_PORT": "eighty"})

    def test_overlayed_values_are_still_validated(self):
        with pytest.raises(ServeError, match="shards"):
            ServiceConfig.from_env(environ={"BINGO_SERVE_SHARDS": "0"})


class TestFromCliArgs:
    def test_namespace_maps_onto_fields(self, monkeypatch):
        for key in list(__import__("os").environ):
            if key.startswith("BINGO_SERVE_"):
                monkeypatch.delenv(key)
        args = make_namespace(
            engine="gsampler",
            shards=2,
            port=8125,
            no_warm=True,
            tenant=["acme:2.0:16", "beta"],
        )
        config = ServiceConfig.from_cli_args(args)
        assert config.engine == "gsampler"
        assert config.shards == 2
        assert config.port == 8125
        assert config.warm_on_publish is False
        assert config.tenants == (("acme", 2.0, 16), ("beta", 1.0, 64))

    def test_environment_overrides_cli_defaults(self, monkeypatch):
        monkeypatch.setenv("BINGO_SERVE_MAX_PENDING_QUERIES", "7")
        config = ServiceConfig.from_cli_args(make_namespace())
        assert config.max_pending_queries == 7


class TestTenantSpecParsing:
    def test_shorthand_forms(self):
        assert _parse_tenant_spec("acme") == ("acme", 1.0, 64)
        assert _parse_tenant_spec("acme:2.5") == ("acme", 2.5, 64)
        assert _parse_tenant_spec("acme:2.5:9") == ("acme", 2.5, 9)

    @pytest.mark.parametrize("spec", ["", "a:b:c:d", "acme:heavy", "acme:1:few"])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ServeError, match="tenant spec"):
            _parse_tenant_spec(spec)
