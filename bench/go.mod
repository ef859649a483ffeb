module ufab/bench

go 1.22

require ufab v0.0.0

replace ufab => ../
