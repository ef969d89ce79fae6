module pperfgrid/benchmark

go 1.24

require pperfgrid v0.0.0

replace pperfgrid => ../
