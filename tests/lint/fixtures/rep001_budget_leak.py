"""REP001 fixtures: un-metered cost-path calls outside the allowlist."""


def leaky(cost_model, optimizer, query, config):
    a = cost_model.cost(query, config)  # repro-lint-expect: REP001
    b = optimizer.true_cost(query, config)  # repro-lint-expect: REP001
    c = optimizer.true_workload_cost(config)  # repro-lint-expect: REP001
    d = optimizer._price(query, config)  # repro-lint-expect: REP001
    e = optimizer._price_wave([(query, config)], None)  # repro-lint-expect: REP001
    return a, b, c, d, e


def metered(optimizer, session, query, config):
    paid = optimizer.whatif_cost(query, config)
    fallback = session.evaluated_cost(query, config)
    free = optimizer.derived_cost(query, config)
    return paid, fallback, free


def not_a_model(totals, query, config):
    # ``cost`` on a receiver that does not look like a cost model is fine.
    return totals.cost(query, config)


def justified(optimizer, query, config):
    return optimizer.true_cost(query, config)  # repro-lint: off[REP001]
