// The benchmark is a module of its own so the root module's build, tests
// and lint never see it; the replace directive and the module path under
// datablocks/ let it import the engine's internal packages.
module datablocks/benchmark

go 1.22

require datablocks v0.0.0

replace datablocks => ../
