module hermes/bench

go 1.22

require hermes v0.0.0

replace hermes => ../
