module scbr/benchmark

go 1.24

require scbr v0.0.0

replace scbr => ../
