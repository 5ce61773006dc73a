module c2nn/benchmark

go 1.24

require c2nn v0.0.0

replace c2nn => ../
