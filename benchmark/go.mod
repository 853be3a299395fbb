module figret/benchmark

go 1.24

require figret v0.0.0

replace figret => ../
