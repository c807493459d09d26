module amp

go 1.24
