module rmcast/bench

go 1.22

require rmcast v0.0.0

replace rmcast => ../
