module dssp/bench

go 1.22

require dssp v0.0.0

replace dssp => ../
