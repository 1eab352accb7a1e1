module vns/bench

go 1.24

require vns v0.0.0

replace vns => ../
