"""TPC-H-lite: the 8-table TPC-H schema at a scale factor, in pandas.

Row counts per SF follow TPC-H (SF=1 is about 1 GB); only the columns the 22
queries reference are generated (l_suppkey, ship/commit/receipt dates,
shipmode, containers, phone prefixes, …).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.catalog import Catalog

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_CONTAINERS = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PKG"]
_SEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"]
_TYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_BASE = pd.to_datetime("1992-01-01")


def tpch_tables(sf: float = 0.01, seed: int = 21) -> dict[str, pd.DataFrame]:
    g = np.random.default_rng(seed)
    n_l = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_o = max(1, int(_N_ORDERS_PER_SF * sf))
    n_c = max(1, int(_N_CUSTOMER_PER_SF * sf))
    n_p = max(1, int(_N_PART_PER_SF * sf))
    n_s = max(5, int(_N_SUPPLIER_PER_SF * sf))

    region = pd.DataFrame({"r_regionkey": np.arange(5, dtype=np.int64), "r_name": _REGIONS})
    nation = pd.DataFrame(
        {
            "n_nationkey": np.arange(25, dtype=np.int64),
            "n_name": _NATIONS,
            "n_regionkey": np.asarray(_NATION_REGION, dtype=np.int64),
        }
    )
    supplier = pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n_s + 1, dtype=np.int64),
            "s_name": [f"Supplier#{i:09d}" for i in range(1, n_s + 1)],
            "s_nationkey": g.integers(0, 25, n_s),
            "s_acctbal": (g.random(n_s) * 10_000 - 1_000).round(2),
        }
    )
    customer = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n_c + 1, dtype=np.int64),
            "c_nationkey": g.integers(0, 25, n_c),
            "c_acctbal": (g.random(n_c) * 10_000 - 1_000).round(2),
            "c_mktsegment": g.choice(_SEGMENTS, n_c),
            "c_phone": [f"{g.integers(10, 35)}-{i % 900 + 100}-555-{i % 9000 + 1000}"
                        for i in range(n_c)],
        }
    )
    part = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n_p + 1, dtype=np.int64),
            "p_name": [f"part {i} blue metallic" if i % 20 else f"part {i} forest green"
                       for i in range(1, n_p + 1)],
            "p_mfgr": g.choice([f"Manufacturer#{i}" for i in range(1, 6)], n_p),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n_p),
            "p_type": g.choice(_TYPES, n_p),
            "p_size": g.integers(1, 51, n_p),
            "p_container": g.choice(_CONTAINERS, n_p),
            "p_retailprice": (900 + (np.arange(1, n_p + 1) % 1000) / 10.0).round(2),
        }
    )
    partsupp = pd.DataFrame(
        {
            "ps_partkey": np.repeat(np.arange(1, n_p + 1, dtype=np.int64), 2),
            "ps_suppkey": g.integers(1, n_s + 1, n_p * 2),
            "ps_availqty": g.integers(1, 10_000, n_p * 2),
            "ps_supplycost": (g.random(n_p * 2) * 1_000).round(2),
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n_o + 1, dtype=np.int64),
            "o_custkey": g.integers(1, n_c + 1, n_o),
            "o_orderstatus": g.choice(list("OFP"), n_o),
            "o_totalprice": (g.random(n_o) * 500_000 + 1_000).round(2),
            "o_orderdate": _BASE + pd.to_timedelta(g.integers(0, 2406, n_o), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n_o
            ),
            "o_shippriority": np.zeros(n_o, dtype=np.int64),
        }
    )
    shipdate = _BASE + pd.to_timedelta(g.integers(0, 2_557, n_l), unit="D")
    lineitem = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_o + 1, n_l),
            "l_partkey": g.integers(1, n_p + 1, n_l),
            "l_suppkey": g.integers(1, n_s + 1, n_l),
            "l_linenumber": g.integers(1, 8, n_l),
            "l_quantity": g.integers(1, 51, n_l).astype("float64"),
            "l_extendedprice": (g.random(n_l) * 90_000 + 900).round(2),
            "l_discount": (g.random(n_l) * 0.1).round(2),
            "l_tax": (g.random(n_l) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n_l),
            "l_linestatus": g.choice(list("OF"), n_l),
            "l_shipdate": shipdate,
            "l_commitdate": shipdate + pd.to_timedelta(g.integers(-30, 60, n_l), unit="D"),
            "l_receiptdate": shipdate + pd.to_timedelta(g.integers(1, 31, n_l), unit="D"),
            "l_shipmode": g.choice(_SHIPMODES, n_l),
            "l_shipinstruct": g.choice(
                ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], n_l
            ),
        }
    ).sort_values("l_orderkey", kind="stable", ignore_index=True)
    # Clustered by order key, as dbgen emits it — enables zone skipping.
    return {
        "region": region,
        "nation": nation,
        "supplier": supplier,
        "customer": customer,
        "part": part,
        "partsupp": partsupp,
        "orders": orders,
        "lineitem": lineitem,
    }


def tpch_catalog(
    spark: SparkSession,
    sf: float = 0.01,
    seed: int = 21,
    zone_size: int = 2048,
) -> Catalog:
    """Predefine every one-to-many PK-FK relationship (the paper's TPC-H setup)
    and build RID indices on the tables that act as many-to-many connectors
    (lineitem between orders/part/supplier, partsupp between part/supplier)."""
    cat = Catalog(spark, zone_size=zone_size)
    for nm, pdf in tpch_tables(sf, seed).items():
        cat.register(nm, pdf)
    cat.predefine_join("lineitem", ["l_orderkey"], "orders", ["o_orderkey"])
    cat.predefine_join("lineitem", ["l_partkey"], "part", ["p_partkey"])
    cat.predefine_join("lineitem", ["l_suppkey"], "supplier", ["s_suppkey"])
    cat.predefine_join("orders", ["o_custkey"], "customer", ["c_custkey"])
    cat.predefine_join("customer", ["c_nationkey"], "nation", ["n_nationkey"])
    cat.predefine_join("supplier", ["s_nationkey"], "nation", ["n_nationkey"])
    cat.predefine_join("nation", ["n_regionkey"], "region", ["r_regionkey"])
    cat.predefine_join("partsupp", ["ps_partkey"], "part", ["p_partkey"])
    cat.predefine_join("partsupp", ["ps_suppkey"], "supplier", ["s_suppkey"])
    cat.build_rid_index("lineitem", ["l_orderkey"], extended_cols=["l_partkey"])
    cat.build_rid_index("lineitem", ["l_partkey"], extended_cols=["l_orderkey"])
    cat.build_rid_index("lineitem", ["l_suppkey"])
    cat.build_rid_index("orders", ["o_custkey"])
    cat.build_rid_index("partsupp", ["ps_partkey"], extended_cols=["ps_suppkey"])
    cat.build_rid_index("partsupp", ["ps_suppkey"], extended_cols=["ps_partkey"])
    cat.build_rid_index("customer", ["c_nationkey"])
    cat.build_rid_index("supplier", ["s_nationkey"])
    cat.build_rid_index("nation", ["n_regionkey"])
    cat.finalize()
    return cat
