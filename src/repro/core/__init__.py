"""Matrix middleware core: coordinator, servers, policy, deployment."""
