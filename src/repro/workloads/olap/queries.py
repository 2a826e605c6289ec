"""The 22-query TPC-H-shaped workload.

Each query is a generator body over :class:`QueryEngine` preserving the
real query's *shape* — which tables it scans, which joins it performs,
roughly which selectivities apply — with simplified predicates.  Join
queries build hash tables over orders/customer/part (the aggregate-cache
consumers of Fig. 13); scan queries are filter+aggregate morsel sweeps.

Every query returns a scalar (sum/count) that the tests verify against a
direct numpy evaluation of the same simplified semantics.
"""

from typing import Callable, Dict, Tuple

import numpy as np

from repro.hw.machine import Machine
from repro.runtime.policy import SchedulingStrategy
from repro.workloads import sorted_unique
from repro.workloads.olap.data import TpchData
from repro.workloads.olap.engine import QueryEngine, QueryResult, execute_query


def q1(e: QueryEngine):
    """Pricing summary: big scan + group-by (scan-heavy)."""
    rows = yield from e.scan_filter(
        "lineitem", lambda c: c["shipdate"] <= 2200, ["shipdate"])
    price = yield from e.gather("lineitem", "extendedprice", rows)
    disc = yield from e.gather("lineitem", "discount", rows)
    rf = yield from e.gather("lineitem", "returnflag", rows)
    ls = yield from e.gather("lineitem", "linestatus", rows)
    _, sums = yield from e.aggregate(rf * 2 + ls, price * (1.0 - disc))
    return float(sums.sum())


def q2(e: QueryEngine):
    """Minimum-cost supplier: part/partsupp join."""
    parts = yield from e.scan_filter("part", lambda c: c["size"] == 15, ["size"])
    ps_part = e.data.col("partsupp", "partkey")
    pi, bi = yield from e.hash_join(e.data.col("part", "partkey")[parts], ps_part)
    cost = yield from e.gather("partsupp", "supplycost", pi)
    return float(cost.sum())


def q3(e: QueryEngine):
    """Shipping priority: customer-orders-lineitem join chain."""
    cust = yield from e.scan_filter("customer", lambda c: c["mktsegment"] == 1, ["mktsegment"])
    o_cust = e.data.col("orders", "custkey")
    oi, _ = yield from e.hash_join(e.data.col("customer", "custkey")[cust], o_cust)
    odate = yield from e.gather("orders", "orderdate", oi)
    oi = oi[odate < 1500]
    li_ord = e.data.col("lineitem", "orderkey")
    li, _ = yield from e.hash_join(e.data.col("orders", "orderkey")[oi], li_ord)
    sdate = yield from e.gather("lineitem", "shipdate", li)
    li = li[sdate > 1500]
    price = yield from e.gather("lineitem", "extendedprice", li)
    disc = yield from e.gather("lineitem", "discount", li)
    return float((price * (1 - disc)).sum())


def q4(e: QueryEngine):
    """Order priority check: semi-join lineitem into orders."""
    late = yield from e.scan_filter(
        "lineitem", lambda c: c["commitdate"] < c["receiptdate"], ["commitdate", "receiptdate"])
    lkeys = yield from e.gather("lineitem", "orderkey", late)
    oi, _ = yield from e.hash_join(sorted_unique(lkeys), e.data.col("orders", "orderkey"))
    odate = yield from e.gather("orders", "orderdate", oi)
    return float((odate < 1200).sum())


def q5(e: QueryEngine):
    """Local supplier volume: 4-way join chain."""
    ords = yield from e.scan_filter("orders", lambda c: c["orderdate"] < 800, ["orderdate"])
    li, bi = yield from e.hash_join(
        e.data.col("orders", "orderkey")[ords], e.data.col("lineitem", "orderkey"))
    supp = yield from e.gather("lineitem", "suppkey", li)
    nat = yield from e.gather("supplier", "nationkey", supp)
    price = yield from e.gather("lineitem", "extendedprice", li)
    disc = yield from e.gather("lineitem", "discount", li)
    keep = nat < 5
    return float((price[keep] * (1 - disc[keep])).sum())


def q6(e: QueryEngine):
    """Forecast revenue change: pure scan + filter (scan-heavy)."""
    rows = yield from e.scan_filter(
        "lineitem",
        lambda c: (c["shipdate"] >= 365) & (c["shipdate"] < 730)
        & (c["discount"] >= 0.05) & (c["discount"] <= 0.07) & (c["quantity"] < 24),
        ["shipdate", "discount", "quantity"],
    )
    price = yield from e.gather("lineitem", "extendedprice", rows)
    disc = yield from e.gather("lineitem", "discount", rows)
    return float((price * disc).sum())


def q7(e: QueryEngine):
    """Volume shipping: lineitem-supplier + orders-customer nation pairs."""
    li, _ = yield from e.hash_join(
        e.data.col("supplier", "suppkey"), e.data.col("lineitem", "suppkey"))
    snat = yield from e.gather("lineitem", "suppkey", li)
    nat = yield from e.gather("supplier", "nationkey", snat)
    price = yield from e.gather("lineitem", "extendedprice", li)
    keep = (nat == 1) | (nat == 2)
    return float(price[keep].sum())


def q8(e: QueryEngine):
    """Market share: part-lineitem-orders joins, share ratio."""
    parts = yield from e.scan_filter("part", lambda c: c["type"] == 10, ["type"])
    li, _ = yield from e.hash_join(
        e.data.col("part", "partkey")[parts], e.data.col("lineitem", "partkey"))
    price = yield from e.gather("lineitem", "extendedprice", li)
    okeys = yield from e.gather("lineitem", "orderkey", li)
    odate = yield from e.gather("orders", "orderdate", okeys)
    num = price[odate < 1250].sum()
    den = price.sum()
    return float(num / den) if den else 0.0


def q9(e: QueryEngine):
    """Product profit: part-lineitem-partsupp joins (join-heavy)."""
    parts = yield from e.scan_filter("part", lambda c: c["brand"] < 12, ["brand"])
    li, _ = yield from e.hash_join(
        e.data.col("part", "partkey")[parts], e.data.col("lineitem", "partkey"))
    price = yield from e.gather("lineitem", "extendedprice", li)
    disc = yield from e.gather("lineitem", "discount", li)
    qty = yield from e.gather("lineitem", "quantity", li)
    return float((price * (1 - disc) - qty * 10.0).sum())


def q10(e: QueryEngine):
    """Returned item reporting: lineitem(returnflag) join orders/customer."""
    ret = yield from e.scan_filter("lineitem", lambda c: c["returnflag"] == 2, ["returnflag"])
    okeys = yield from e.gather("lineitem", "orderkey", ret)
    ckeys = yield from e.gather("orders", "custkey", okeys)
    price = yield from e.gather("lineitem", "extendedprice", ret)
    disc = yield from e.gather("lineitem", "discount", ret)
    _, sums = yield from e.aggregate(ckeys, price * (1 - disc))
    return float(sums.sum())


def q11(e: QueryEngine):
    """Important stock: partsupp value by supplier nation."""
    cost = yield from e.gather(
        "partsupp", "supplycost", np.arange(e.data.rows("partsupp"), dtype=np.int64))
    qty = yield from e.gather(
        "partsupp", "availqty", np.arange(e.data.rows("partsupp"), dtype=np.int64))
    value = cost * qty
    return float(value[value > np.mean(value)].sum())


def q12(e: QueryEngine):
    """Shipping modes: lineitem filter join orders priorities."""
    rows = yield from e.scan_filter(
        "lineitem", lambda c: (c["shipmode"] <= 1) & (c["receiptdate"] > c["commitdate"]),
        ["shipmode", "receiptdate", "commitdate"])
    okeys = yield from e.gather("lineitem", "orderkey", rows)
    prio = yield from e.gather("orders", "orderpriority", okeys)
    return float((prio <= 1).sum())


def q13(e: QueryEngine):
    """Customer order counts: orders grouped by custkey."""
    ckeys = yield from e.gather(
        "orders", "custkey", np.arange(e.data.rows("orders"), dtype=np.int64))
    _, counts = yield from e.aggregate(ckeys, np.ones(ckeys.size))
    return float((counts >= 2).sum())


def q14(e: QueryEngine):
    """Promotion effect: part join lineitem, promo revenue ratio."""
    rows = yield from e.scan_filter(
        "lineitem", lambda c: (c["shipdate"] >= 900) & (c["shipdate"] < 930), ["shipdate"])
    pkeys = yield from e.gather("lineitem", "partkey", rows)
    ptype = yield from e.gather("part", "type", pkeys)
    price = yield from e.gather("lineitem", "extendedprice", rows)
    disc = yield from e.gather("lineitem", "discount", rows)
    rev = price * (1 - disc)
    den = rev.sum()
    return float(rev[ptype < 50].sum() / den) if den else 0.0


def q15(e: QueryEngine):
    """Top supplier: revenue per supplier, max."""
    rows = yield from e.scan_filter(
        "lineitem", lambda c: (c["shipdate"] >= 600) & (c["shipdate"] < 690), ["shipdate"])
    skeys = yield from e.gather("lineitem", "suppkey", rows)
    price = yield from e.gather("lineitem", "extendedprice", rows)
    disc = yield from e.gather("lineitem", "discount", rows)
    _, sums = yield from e.aggregate(skeys, price * (1 - disc))
    return float(sums.max()) if sums.size else 0.0


def q16(e: QueryEngine):
    """Part/supplier relationship: filtered partsupp counts."""
    parts = yield from e.scan_filter(
        "part", lambda c: (c["brand"] != 5) & (c["size"] < 30), ["brand", "size"])
    pi, _ = yield from e.hash_join(
        e.data.col("part", "partkey")[parts], e.data.col("partsupp", "partkey"))
    skeys = yield from e.gather("partsupp", "suppkey", pi)
    return float(sorted_unique(skeys).size)


def q17(e: QueryEngine):
    """Small-quantity revenue: part join lineitem, qty below avg."""
    parts = yield from e.scan_filter("part", lambda c: c["container"] == 7, ["container"])
    li, _ = yield from e.hash_join(
        e.data.col("part", "partkey")[parts], e.data.col("lineitem", "partkey"))
    qty = yield from e.gather("lineitem", "quantity", li)
    price = yield from e.gather("lineitem", "extendedprice", li)
    if qty.size == 0:
        return 0.0
    return float(price[qty < 0.2 * qty.mean()].sum() / 7.0)


def q18(e: QueryEngine):
    """Large volume customers: group lineitem by order, join up (group-heavy)."""
    okeys = yield from e.gather(
        "lineitem", "orderkey", np.arange(e.data.rows("lineitem"), dtype=np.int64))
    qty = yield from e.gather(
        "lineitem", "quantity", np.arange(e.data.rows("lineitem"), dtype=np.int64))
    keys, sums = yield from e.aggregate(okeys, qty)
    big = keys[sums > 150]
    oi, _ = yield from e.hash_join(big, e.data.col("orders", "orderkey"))
    total = yield from e.gather("orders", "totalprice", oi)
    return float(total.sum())


def q19(e: QueryEngine):
    """Discounted revenue: part join lineitem with bracketed filters."""
    rows = yield from e.scan_filter(
        "lineitem", lambda c: (c["quantity"] < 12) & (c["shipinstruct"] == 1),
        ["quantity", "shipinstruct"])
    pkeys = yield from e.gather("lineitem", "partkey", rows)
    brand = yield from e.gather("part", "brand", pkeys)
    price = yield from e.gather("lineitem", "extendedprice", rows)
    return float(price[brand < 8].sum())


def q20(e: QueryEngine):
    """Potential part promotion: partsupp semi-join lineitem quantities."""
    parts = yield from e.scan_filter("part", lambda c: c["brand"] == 3, ["brand"])
    pi, _ = yield from e.hash_join(
        e.data.col("part", "partkey")[parts], e.data.col("partsupp", "partkey"))
    avail = yield from e.gather("partsupp", "availqty", pi)
    return float((avail > 5000).sum())


def q21(e: QueryEngine):
    """Suppliers who kept orders waiting: multi-filter lineitem join supplier."""
    rows = yield from e.scan_filter(
        "lineitem", lambda c: c["receiptdate"] > c["commitdate"],
        ["receiptdate", "commitdate"])
    skeys = yield from e.gather("lineitem", "suppkey", rows)
    nat = yield from e.gather("supplier", "nationkey", skeys)
    _, counts = yield from e.aggregate(skeys[nat == 4], np.ones(int((nat == 4).sum())))
    return float(counts.sum())


def q22(e: QueryEngine):
    """Global sales opportunity: customer acctbal analysis (scan-light)."""
    bal = yield from e.gather(
        "customer", "acctbal", np.arange(e.data.rows("customer"), dtype=np.int64))
    pos = bal[bal > 0]
    if pos.size == 0:
        return 0.0
    return float(bal[bal > pos.mean()].size)


#: query name -> (body, kind) where kind is 'scan' or 'join' (Fig. 13 classes)
QUERIES: Dict[str, Tuple[Callable, str]] = {
    "q1": (q1, "scan"), "q2": (q2, "join"), "q3": (q3, "join"), "q4": (q4, "join"),
    "q5": (q5, "join"), "q6": (q6, "scan"), "q7": (q7, "join"), "q8": (q8, "join"),
    "q9": (q9, "join"), "q10": (q10, "join"), "q11": (q11, "scan"), "q12": (q12, "join"),
    "q13": (q13, "scan"), "q14": (q14, "join"), "q15": (q15, "scan"), "q16": (q16, "join"),
    "q17": (q17, "join"), "q18": (q18, "scan"), "q19": (q19, "join"), "q20": (q20, "join"),
    "q21": (q21, "join"), "q22": (q22, "scan"),
}


def run_query(
    machine: Machine,
    strategy: SchedulingStrategy,
    n_workers: int,
    data: TpchData,
    query: str,
    seed: int = 7,
) -> QueryResult:
    """Execute one named TPC-H-shaped query (Fig. 13 cell)."""
    fn, _ = QUERIES[query]
    return execute_query(machine, strategy, n_workers, data, fn, name=query, seed=seed)
